"""Hierarchical tracing: true parent/child span trees per solve.

A :class:`Tracer` records every interval as a node in a tree: each span
has a stable integer id, its parent's id (``None`` for roots), a start
offset on the tracer's private monotonic clock and a duration.
The solver registry opens one root span per solve (``solve.<name>``), so
the nested ``linearize`` / ``alg2`` / ``reclaim`` spans become its
children automatically.

Span trees travel as plain-dict snapshots (``aart-trace/1``): the
parallel sweep engine merges worker trees into the caller's tracer
(ids remapped, optionally re-parented under the caller's open span),
JSONL sinks carry them as ``{"type": "trace"}`` events, and
:func:`chrome_trace` renders any collection of snapshots as Chrome
trace-event JSON — load it at ``chrome://tracing`` or https://ui.perfetto.dev.

Determinism contract: span *structure* (names, nesting, counts — see
:meth:`Tracer.skeleton`) is a pure function of the work performed, so a
parallel run's merged skeleton equals the serial run's.  Durations are
wall-clock measurements and are exempt from bit-identity.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from typing import Any, Callable, Iterable

TRACE_FORMAT = "aart-trace/1"


class Tracer:
    """Records parent/child spans on a private monotonic timeline.

    Parameters
    ----------
    trace_id:
        Correlation id stamped on every snapshot; a fresh random id is
        drawn when omitted.  Tests pass a fixed id for golden output.
    clock:
        Monotonic time source (seconds).  Injectable so tests produce
        deterministic starts/durations; defaults to :func:`time.monotonic`.
    """

    def __init__(
        self, trace_id: str | None = None, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex[:16]
        self._clock = clock
        self._epoch = clock()
        self._spans: list[dict[str, Any]] = []  # finished spans, completion order
        self._stack: list[int] = []  # open span ids, innermost last
        self._next_id = 1

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Open a child of the innermost open span (or a root)."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else None
        start = self._clock() - self._epoch
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self._spans.append(
                {
                    "name": str(name),
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "start": start,
                    "duration": self._clock() - self._epoch - start,
                    "attrs": dict(attrs),
                }
            )

    def record(
        self,
        name: str,
        start: float,
        duration: float,
        parent_id: int | None = None,
        **attrs: Any,
    ) -> int:
        """Record an externally measured interval as a finished span.

        Transports use this for phases they measure before/outside the
        tracer's own context managers (queue wait, coalesce wait).
        ``start`` is an offset on this tracer's timeline; ``parent_id``
        defaults to the innermost open span.  Returns the new span id.
        """
        span_id = self._next_id
        self._next_id += 1
        if parent_id is None:
            parent_id = self.open_span_id
        self._spans.append(
            {
                "name": str(name),
                "span_id": span_id,
                "parent_id": parent_id,
                "start": float(start),
                "duration": float(duration),
                "attrs": dict(attrs),
            }
        )
        return span_id

    @property
    def now(self) -> float:
        """Current offset on this tracer's private timeline (seconds)."""
        return self._clock() - self._epoch

    @property
    def open_span_id(self) -> int | None:
        """Id of the innermost open span (``None`` outside any span)."""
        return self._stack[-1] if self._stack else None

    def __len__(self) -> int:
        return len(self._spans)

    # -- snapshots & merging ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Finished spans as one JSON/pickle-ready ``aart-trace/1`` dict."""
        return {
            "format": TRACE_FORMAT,
            "trace_id": self.trace_id,
            "spans": [dict(s) for s in self._spans],
        }

    def merge(
        self,
        snap: dict[str, Any],
        parent_id: int | None = None,
        at: float | None = None,
    ) -> None:
        """Graft another tracer's finished spans into this tree.

        Foreign span ids are remapped to fresh local ids; foreign roots
        become children of ``parent_id`` (default: the innermost open
        span, so merging inside a ``with tracer.span(...)`` nests the
        worker's tree under it).  ``at`` shifts the foreign timeline so
        its origin lands at that offset on ours (default: "now") —
        structure is exact, wall-clock alignment is best-effort.

        Remote-parent grafting: a foreign root stamped with a
        ``"remote_parent"`` key (see :func:`stamp_remote`) grafts under
        that span when it names an id *this* tracer issued — the
        cross-process stitch used by the service transports, where the
        client told the server which of its spans the work belongs to.
        Roots with no (or an unknown) remote parent fall back to
        ``parent_id``.
        """
        if snap.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not an {TRACE_FORMAT} snapshot (format={snap.get('format')!r})"
            )
        if parent_id is None:
            parent_id = self.open_span_id
        if at is None:
            at = self._clock() - self._epoch
        local_max = self._next_id  # ids below this are ours: valid graft points
        remap: dict[int, int] = {}
        for span in snap["spans"]:
            remap[span["span_id"]] = self._next_id
            self._next_id += 1
        for span in snap["spans"]:
            old_parent = span["parent_id"]
            if old_parent is not None:
                new_parent: int | None = remap[old_parent]
            else:
                remote = span.get("remote_parent")
                if isinstance(remote, int) and 1 <= remote < local_max:
                    new_parent = remote
                else:
                    new_parent = parent_id
            self._spans.append(
                {
                    "name": span["name"],
                    "span_id": remap[span["span_id"]],
                    "parent_id": new_parent,
                    "start": float(span["start"]) + at,
                    "duration": float(span["duration"]),
                    "attrs": dict(span.get("attrs", {})),
                }
            )

    # -- views -----------------------------------------------------------------

    def tree(self) -> list[dict[str, Any]]:
        """The spans as a forest: each node carries a ``children`` list.

        Roots (and each ``children`` list) are ordered by span id, i.e.
        by span *start* order, which is deterministic for deterministic
        work.
        """
        nodes = {
            s["span_id"]: {**s, "children": []} for s in self._spans
        }
        roots: list[dict[str, Any]] = []
        for span_id in sorted(nodes):
            node = nodes[span_id]
            parent = node["parent_id"]
            if parent is not None and parent in nodes:
                nodes[parent]["children"].append(node)
            else:
                roots.append(node)
        return roots

    def skeleton(self) -> dict[str, Any]:
        """Durations-free structural digest: ``{name: {count, children}}``.

        Two runs performing the same work produce equal skeletons no
        matter how the spans were split across worker processes — the
        form the parallel bit-identity tests compare.
        """

        def fold(nodes: Iterable[dict[str, Any]]) -> dict[str, Any]:
            out: dict[str, Any] = {}
            for node in nodes:
                entry = out.setdefault(node["name"], {"count": 0, "children": {}})
                entry["count"] += 1
                sub = fold(node["children"])
                for name, child in sub.items():
                    tgt = entry["children"].setdefault(
                        name, {"count": 0, "children": {}}
                    )
                    _merge_skel(tgt, child)
            return out

        return fold(self.tree())


def _merge_skel(into: dict[str, Any], other: dict[str, Any]) -> None:
    into["count"] += other["count"]
    for name, child in other["children"].items():
        tgt = into["children"].setdefault(name, {"count": 0, "children": {}})
        _merge_skel(tgt, child)


def stamp_remote(
    snap: dict[str, Any], trace_id: str, parent_span_id: int | None
) -> dict[str, Any]:
    """A copy of ``snap`` re-homed under a remote caller's span.

    The server records its spans with no knowledge of who asked; at
    response time the transport stamps the snapshot with the caller's
    ``trace_id`` and marks every root with ``remote_parent`` — the span
    id *in the caller's tracer* the work belongs to.  The caller's
    :meth:`Tracer.merge` then grafts the roots under that span, stitching
    one tree across the process boundary.
    """
    spans = []
    for span in snap.get("spans", ()):
        copy = dict(span)
        if copy.get("parent_id") is None and parent_span_id is not None:
            copy["remote_parent"] = parent_span_id
        spans.append(copy)
    return {"format": TRACE_FORMAT, "trace_id": trace_id, "spans": spans}


def chrome_trace(*snapshots: dict[str, Any]) -> dict[str, Any]:
    """Render trace snapshots as Chrome trace-event JSON.

    Each span becomes one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur``; each snapshot gets its own ``pid`` so
    traces merged from several workers stay visually separate.  The
    result loads directly in ``chrome://tracing`` and Perfetto.
    """
    events: list[dict[str, Any]] = []
    for pid, snap in enumerate(snapshots):
        if snap.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not an {TRACE_FORMAT} snapshot (format={snap.get('format')!r})"
            )
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"aart trace {snap.get('trace_id', pid)}"},
            }
        )
        for span in sorted(snap["spans"], key=lambda s: (s["start"], s["span_id"])):
            args = {"span_id": span["span_id"], "parent_id": span["parent_id"]}
            args.update(span.get("attrs", {}))
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "name": span["name"],
                    "ts": round(span["start"] * 1e6, 3),
                    "dur": round(span["duration"] * 1e6, 3),
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
