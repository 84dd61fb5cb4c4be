"""Typed metric instruments with exactly-mergeable state.

A :class:`MetricsRegistry` holds named :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments (optionally labeled, Prometheus-style).
The design constraint, inherited from the parallel sweep engine, is that
telemetry recorded in worker processes must **merge exactly** into the
caller's registry — the same contract :class:`~repro.observability.Counters`
satisfies with integer addition:

* histogram *buckets* are fixed at construction (log-scale powers of two
  by default), so the same observation lands in the same bucket in every
  process and bucket counts merge by integer addition;
* histogram/counter *sums* are kept as exact Shewchuk expansions
  (:class:`ExactSum`): the represented value is the true real-number sum
  of every observation, so merging is associative and commutative and the
  exported, correctly-rounded float is bit-identical no matter how the
  observations were split across workers.

Instruments are cheap but not free; callers that need a zero-cost "off"
path keep the registry ``None`` and guard with a single ``is None`` check
(see :meth:`repro.engine.SolveContext.observe`).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable

#: Default histogram buckets: log-scale powers of two from ~1 µs to ~1024 s
#: (durations in seconds land well inside; anything larger overflows into
#: the implicit +Inf bucket).  Fixed — never derived from the data — so
#: every process buckets identically.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(2.0**k for k in range(-20, 11))

METRICS_FORMAT = "aart-metrics/1"

#: Canonical instrument names emitted by the engine and the service.
TRIAL_THREADS = "aart_trial_threads"
TRIAL_UTILITY = "aart_trial_utility"
SPAN_SECONDS = "aart_span_seconds"
REQUEST_LATENCY = "aart_request_latency_seconds"
REQUEST_PHASE_SECONDS = "aart_request_phase_seconds"
STEP_SECONDS = "aart_step_seconds"
QUEUE_DEPTH = "aart_queue_depth"
SERVER_RESIDUAL = "aart_server_residual"
GAUGE_THREADS = "aart_threads"
GAUGE_UTILITY = "aart_utility_total"
GAUGE_BOUND = "aart_bound_total"
GAUGE_RATIO = "aart_gap_ratio"
PRICE_ITERATIONS = "aart_price_iterations"

#: Canonical label key distinguishing per-shard series in a fleet-wide
#: scrape.  Shard-local exporters never set it themselves; the fleet
#: coordinator stamps it onto every aggregated instrument (see
#: :func:`repro.observability.exposition.relabel_snapshot`) so the same
#: canonical names — ``aart_utility_total``, ``aart_server_residual``, … —
#: from N shards coexist in one exposition instead of colliding.
SHARD_LABEL = "shard"

#: Fleet-coordinator gauges (aggregates over every shard's certified state).
FLEET_SHARDS = "aart_fleet_shards"
FLEET_THREADS = "aart_fleet_threads"
FLEET_UTILITY = "aart_fleet_utility_total"
FLEET_BOUND = "aart_fleet_bound_total"
FLEET_RATIO = "aart_fleet_gap_ratio"


class ExactSum:
    """An exactly-represented running sum of floats.

    Maintains a Shewchuk expansion (a list of non-overlapping partials
    whose mathematical sum equals the true real-number sum of everything
    added), exactly like :func:`math.fsum` does internally.  Because the
    represented value is exact, folding one sum into another is
    associative and commutative, and :attr:`value` — the correctly
    rounded float — is independent of the order observations arrived in.
    """

    __slots__ = ("_partials",)

    def __init__(self, partials: Iterable[float] = ()) -> None:
        self._partials: list[float] = []
        for p in partials:
            self.add(float(p))

    def add(self, x: float) -> None:
        """Fold one finite float into the exact sum."""
        if not math.isfinite(x):
            raise ValueError(f"ExactSum only accepts finite values, got {x!r}")
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum | Iterable[float]") -> None:
        """Fold another exact sum (or its partials) into this one — lossless."""
        partials = other._partials if isinstance(other, ExactSum) else other
        for p in list(partials):
            self.add(float(p))

    @property
    def value(self) -> float:
        """The correctly rounded float value of the exact sum."""
        return math.fsum(self._partials)

    def partials(self) -> list[float]:
        """The expansion in canonical form (serialize this to merge losslessly
        later): the correctly rounded value, then the correctly rounded
        remainder, and so on until the remainder is zero.

        The internal partials depend on the order the floats arrived in;
        this list depends only on the exact sum, so equal sums serialize
        equally however they were accumulated or merged.
        """
        out: list[float] = []
        rest = ExactSum(self._partials)
        value = rest.value
        while value:
            out.append(value)
            rest.add(-value)
            value = rest.value
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactSum({self.value!r})"


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared bookkeeping: identity, help text, a mutation lock."""

    kind = "?"

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None):
        self.name = str(name)
        self.help = str(help)
        self.labels: dict[str, str] = dict(_label_key(labels or {}))
        self._lock = threading.Lock()

    def _meta(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "help": self.help,
            "labels": dict(self.labels),
        }


class Counter(_Instrument):
    """A monotonically increasing value (float increments allowed)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None):
        super().__init__(name, help, labels)
        self._sum = ExactSum()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotonic; cannot inc by {amount!r}")
        with self._lock:
            self._sum.add(float(amount))

    @property
    def value(self) -> float:
        with self._lock:
            return self._sum.value

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                **self._meta(),
                "value": self._sum.value,
                "partials": self._sum.partials(),
            }

    def merge(self, snap: dict[str, Any]) -> None:
        with self._lock:
            self._sum.merge(snap.get("partials", (snap["value"],)))


class Gauge(_Instrument):
    """A point-in-time value with an explicit cross-process merge policy.

    ``aggregation`` decides what :meth:`merge` does with another gauge's
    value: ``"last"`` (the merged-in value wins — right for "current"
    readings reported by the owner), ``"sum"``, ``"max"`` or ``"min"``
    (right for per-worker readings that compose).
    """

    kind = "gauge"
    _AGGREGATIONS = ("last", "sum", "max", "min")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        aggregation: str = "last",
    ):
        super().__init__(name, help, labels)
        if aggregation not in self._AGGREGATIONS:
            raise ValueError(
                f"aggregation must be one of {self._AGGREGATIONS}, got {aggregation!r}"
            )
        self.aggregation = aggregation
        self._value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._set = True

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                **self._meta(),
                "aggregation": self.aggregation,
                "value": self._value,
                "set": self._set,
            }

    def merge(self, snap: dict[str, Any]) -> None:
        if not snap.get("set", True):
            return
        other = float(snap["value"])
        with self._lock:
            if not self._set:
                self._value = other
            elif self.aggregation == "last":
                self._value = other
            elif self.aggregation == "sum":
                self._value += other
            elif self.aggregation == "max":
                self._value = max(self._value, other)
            else:
                self._value = min(self._value, other)
            self._set = True


class Histogram(_Instrument):
    """A fixed-bucket distribution with exactly-mergeable state.

    ``buckets`` are the inclusive upper bounds (Prometheus ``le``
    semantics) of the finite buckets, strictly increasing; an implicit
    +Inf bucket catches overflow.  Counts are per-bucket (not cumulative;
    the exposition layer accumulates), so merging is integer addition;
    the sum of observations is an :class:`ExactSum`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: Iterable[float] | None = None,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be a non-empty strictly increasing sequence")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("buckets must be finite (+Inf is implicit)")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self._sum = ExactSum()
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one finite observation."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram observations must be finite, got {value!r}")
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum.add(value)
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum.value

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (the bucket's upper bound).

        Returns ``nan`` when empty; observations past the last bound
        report ``inf`` (the overflow bucket has no finite upper edge).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            if self._count == 0:
                return math.nan
            rank = q * self._count
            seen = 0
            for idx, n in enumerate(self._counts):
                seen += n
                if seen >= rank and n:
                    return self.buckets[idx] if idx < len(self.buckets) else math.inf
            return math.inf

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                **self._meta(),
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum.value,
                "partials": self._sum.partials(),
            }

    def merge(self, snap: dict[str, Any]) -> None:
        if tuple(snap["buckets"]) != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ "
                f"({list(snap['buckets'])} vs {list(self.buckets)})"
            )
        with self._lock:
            for idx, n in enumerate(snap["counts"]):
                self._counts[idx] += int(n)
            self._count += int(snap["count"])
            self._sum.merge(snap.get("partials", (snap["sum"],)))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named, optionally labeled instruments with get-or-create semantics.

    One registry per process (or per :class:`~repro.engine.SolveContext`);
    worker registries snapshot and merge into the caller's exactly —
    the :class:`Counters`.merge idiom, extended to distributions.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, _Instrument] = {}
        self._kinds: dict[str, str] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                known = self._kinds.get(name)
                if known is not None and known != cls.kind:
                    raise ValueError(
                        f"metric {name!r} is already registered as a {known}"
                    )
                inst = cls(name, help=help, labels=labels, **kwargs)
                self._instruments[key] = inst
                self._kinds[name] = cls.kind
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} is already registered as a {inst.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", aggregation: str = "last", **labels: str
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels, aggregation=aggregation)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __iter__(self):
        with self._lock:
            return iter(list(self._instruments.values()))

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as one mergeable, JSON/pickle-ready dict.

        Instruments are sorted by (name, labels) so the snapshot — and
        everything rendered from it — is independent of creation order.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        return {
            "format": METRICS_FORMAT,
            "instruments": sorted(
                (inst.snapshot() for inst in instruments),
                key=lambda s: (s["name"], sorted(s["labels"].items())),
            ),
        }

    def merge(self, other: "MetricsRegistry | dict[str, Any]") -> None:
        """Fold another registry (or its snapshot) into this one, exactly."""
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        if snap.get("format") != METRICS_FORMAT:
            raise ValueError(
                f"not an {METRICS_FORMAT} snapshot (format={snap.get('format')!r})"
            )
        for inst_snap in snap["instruments"]:
            cls = _KINDS[inst_snap["kind"]]
            kwargs: dict[str, Any] = {}
            if inst_snap["kind"] == "gauge":
                kwargs["aggregation"] = inst_snap.get("aggregation", "last")
            if inst_snap["kind"] == "histogram":
                kwargs["buckets"] = inst_snap["buckets"]
            inst = self._get_or_create(
                cls, inst_snap["name"], inst_snap.get("help", ""),
                inst_snap.get("labels", {}), **kwargs,
            )
            if not inst.help and inst_snap.get("help"):
                inst.help = inst_snap["help"]
            inst.merge(inst_snap)
