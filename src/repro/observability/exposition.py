"""Render a metrics snapshot as Prometheus text or structured JSON.

Both encoders operate on the plain-dict snapshot produced by
:meth:`~repro.observability.metrics.MetricsRegistry.snapshot`, never on
live instruments — rendering a telemetry payload received from another
process works exactly like rendering local state.

The Prometheus output follows text exposition format 0.0.4: ``# HELP`` /
``# TYPE`` headers per metric name, cumulative ``_bucket{le=...}`` series
plus ``_sum`` / ``_count`` for histograms.  ``render_json`` keeps the full
mergeable state (bucket bounds, exact-sum partials stripped) for
dashboards and the ``aart client metrics`` CLI.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

#: Content type a compliant HTTP endpoint should serve the text format as.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt_value(v: float) -> str:
    """Prometheus sample value: shortest float repr, inf/nan spelled out."""
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if float(v) == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _fmt_labels(labels: Mapping[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*sorted(labels.items()), *extra]
    if not items:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in items) + "}"


def relabel_snapshot(snapshot: dict[str, Any], **labels: str) -> dict[str, Any]:
    """A copy of ``snapshot`` with ``labels`` stamped onto every instrument.

    The added keys become *defaults*: an instrument that already carries
    one of them keeps its own value.  This is how the fleet coordinator
    turns N per-shard snapshots — all emitting the same canonical names —
    into disjoint series in one scrape: stamp each with
    ``shard="<k>"`` (:data:`~repro.observability.metrics.SHARD_LABEL`)
    before concatenating via :func:`merge_snapshots`.
    """
    from repro.observability.metrics import METRICS_FORMAT

    if snapshot.get("format") != METRICS_FORMAT:
        raise ValueError(f"not a metrics snapshot: {snapshot.get('format')!r}")
    stamped = {str(k): str(v) for k, v in labels.items()}
    instruments = [
        {**inst, "labels": {**stamped, **inst.get("labels", {})}}
        for inst in snapshot["instruments"]
    ]
    return {
        "format": METRICS_FORMAT,
        "instruments": sorted(
            instruments, key=lambda s: (s["name"], sorted(s["labels"].items()))
        ),
    }


def merge_snapshots(*snapshots: dict[str, Any]) -> dict[str, Any]:
    """One combined snapshot (instruments concatenated, re-sorted)."""
    from repro.observability.metrics import METRICS_FORMAT

    instruments: list[dict[str, Any]] = []
    for snap in snapshots:
        if snap.get("format") != METRICS_FORMAT:
            raise ValueError(f"not a metrics snapshot: {snap.get('format')!r}")
        instruments.extend(snap["instruments"])
    return {
        "format": METRICS_FORMAT,
        "instruments": sorted(
            instruments, key=lambda s: (s["name"], sorted(s["labels"].items()))
        ),
    }


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """The snapshot in Prometheus text exposition format 0.0.4."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for inst in snapshot["instruments"]:
        name, kind, labels = inst["name"], inst["kind"], inst.get("labels", {})
        if name not in seen_headers:
            seen_headers.add(name)
            if inst.get("help"):
                lines.append(f"# HELP {name} {inst['help']}")
            lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(inst['value'])}")
        elif kind == "histogram":
            cumulative = 0
            for bound, n in zip(inst["buckets"], inst["counts"]):
                cumulative += int(n)
                le = (("le", _fmt_value(float(bound))),)
                lines.append(
                    f"{name}_bucket{_fmt_labels(labels, le)} {cumulative}"
                )
            lines.append(
                f'{name}_bucket{_fmt_labels(labels, (("le", "+Inf"),))} '
                f"{int(inst['count'])}"
            )
            lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(inst['sum'])}")
            lines.append(f"{name}_count{_fmt_labels(labels)} {int(inst['count'])}")
        else:
            raise ValueError(f"unknown instrument kind {kind!r} for {name!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def strip_partials(snapshot: dict[str, Any]) -> dict[str, Any]:
    """The snapshot minus its merge-only internals (exact-sum partials).

    The slim form is what read APIs and dashboards get: every rendered
    value is present, but it can no longer be merged losslessly.
    """
    return {
        "format": snapshot["format"],
        "instruments": [
            {k: v for k, v in inst.items() if k != "partials"}
            for inst in snapshot["instruments"]
        ],
    }


def render_json(snapshot: dict[str, Any], indent: int | None = None) -> str:
    """The snapshot as JSON, with merge-only internals (partials) stripped."""
    return json.dumps(strip_partials(snapshot), sort_keys=True, indent=indent)
