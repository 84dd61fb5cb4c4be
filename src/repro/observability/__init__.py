"""Observability: counters, metrics, traces, sinks, gap monitoring.

Grown out of ``repro.utils.timing`` into the telemetry subsystem every
layer shares:

* **counters** — :class:`Counters`, monotonic named integers merged
  exactly across parallel workers (canonical names live here too);
* **metrics** — :class:`MetricsRegistry` with typed :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments; fixed log-scale
  buckets and exact sums make histogram merges associative, commutative
  and bit-identical however trials are split across processes; rendered
  by :func:`render_prometheus` / :func:`render_json`;
* **traces** — :class:`Tracer` (parent/child span trees, Chrome-trace
  exportable via :func:`chrome_trace`); a span's flat per-name totals
  are the ``SPAN_SECONDS`` histogram's sum and count;
* **sinks** — :class:`JsonlSink` (thread-safe), :class:`MemorySink`
  (optionally bounded), :class:`TeeSink`, and :func:`tee_sinks`, which
  makes the one sink an owner emits into (``None`` when nothing is
  attached);
* **gap monitoring** — :class:`GapMonitor` alerts if a certified step's
  utility/bound ratio ever falls below the paper's α guarantee.

The solver engine's :class:`~repro.engine.SolveContext` carries counters
and, optionally, a tracer, a metrics registry and a sink; the allocation
service exposes them over ``/metrics`` and ``/healthz``.  See ``docs/observability.md``.
"""

from repro.observability.counters import (
    ALG1_ROUNDS,
    ALG2_HEAP_OPS,
    BATCH_EVALUATIONS,
    BATCH_FALLBACKS,
    BATCH_TRIALS,
    BISECTION_ITERATIONS,
    FLEET_MIGRATION_ROLLBACKS,
    FLEET_MIGRATIONS,
    FLEET_REBALANCES,
    FLEET_REQUESTS,
    FLEET_STEPS,
    GROUPED_BISECTION_ITERATIONS,
    LINEARIZE_CACHE_HITS,
    LINEARIZE_CACHE_MISSES,
    LINEARIZE_CALLS,
    PRICE_CONVERGENCE_RESIDUAL,
    PRICE_UPDATE_ITERATIONS,
    RECLAIM_CALLS,
    SERVICE_ADMISSION_REJECTS,
    SERVICE_ARRIVALS,
    SERVICE_DEPARTURES,
    SERVICE_MIGRATIONS,
    SERVICE_REPLANS,
    SERVICE_REQUESTS,
    SERVICE_STEPS,
    WATERFILL_CALLS,
    Counters,
)
from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    counters_to_snapshot,
    merge_snapshots,
    relabel_snapshot,
    render_json,
    render_prometheus,
    strip_partials,
)
from repro.observability.flightrecorder import (
    FLIGHT_FORMAT,
    NOTABLE_EVENTS,
    FlightRecorder,
    load_flight,
    write_flight,
)
from repro.observability.gap import GapMonitor
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    FLEET_BOUND,
    FLEET_RATIO,
    FLEET_SHARDS,
    FLEET_THREADS,
    FLEET_UTILITY,
    GAUGE_BOUND,
    GAUGE_RATIO,
    GAUGE_THREADS,
    GAUGE_UTILITY,
    METRICS_FORMAT,
    PRICE_ITERATIONS,
    QUEUE_DEPTH,
    REQUEST_LATENCY,
    REQUEST_PHASE_SECONDS,
    SERVER_RESIDUAL,
    SHARD_LABEL,
    SPAN_SECONDS,
    STEP_SECONDS,
    TRIAL_THREADS,
    TRIAL_UTILITY,
    Counter,
    ExactSum,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.sinks import (
    EventSink,
    JsonlSink,
    MemorySink,
    TeeSink,
    tee_sinks,
)
from repro.observability.tracing import (
    TRACE_FORMAT,
    Tracer,
    chrome_trace,
    stamp_remote,
)

__all__ = [
    "ALG1_ROUNDS",
    "ALG2_HEAP_OPS",
    "BATCH_EVALUATIONS",
    "BATCH_FALLBACKS",
    "BATCH_TRIALS",
    "BISECTION_ITERATIONS",
    "DEFAULT_BUCKETS",
    "FLEET_BOUND",
    "FLEET_MIGRATION_ROLLBACKS",
    "FLEET_MIGRATIONS",
    "FLEET_RATIO",
    "FLEET_REBALANCES",
    "FLEET_REQUESTS",
    "FLEET_SHARDS",
    "FLEET_STEPS",
    "FLEET_THREADS",
    "FLEET_UTILITY",
    "FLIGHT_FORMAT",
    "GAUGE_BOUND",
    "GAUGE_RATIO",
    "GAUGE_THREADS",
    "GAUGE_UTILITY",
    "GROUPED_BISECTION_ITERATIONS",
    "LINEARIZE_CACHE_HITS",
    "LINEARIZE_CACHE_MISSES",
    "LINEARIZE_CALLS",
    "METRICS_FORMAT",
    "NOTABLE_EVENTS",
    "PRICE_CONVERGENCE_RESIDUAL",
    "PRICE_ITERATIONS",
    "PRICE_UPDATE_ITERATIONS",
    "PROMETHEUS_CONTENT_TYPE",
    "QUEUE_DEPTH",
    "RECLAIM_CALLS",
    "REQUEST_LATENCY",
    "REQUEST_PHASE_SECONDS",
    "SERVER_RESIDUAL",
    "SERVICE_ADMISSION_REJECTS",
    "SERVICE_ARRIVALS",
    "SERVICE_DEPARTURES",
    "SERVICE_MIGRATIONS",
    "SERVICE_REPLANS",
    "SERVICE_REQUESTS",
    "SERVICE_STEPS",
    "SHARD_LABEL",
    "SPAN_SECONDS",
    "STEP_SECONDS",
    "TRACE_FORMAT",
    "TRIAL_THREADS",
    "TRIAL_UTILITY",
    "WATERFILL_CALLS",
    "Counter",
    "Counters",
    "EventSink",
    "ExactSum",
    "FlightRecorder",
    "Gauge",
    "GapMonitor",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "TeeSink",
    "Tracer",
    "chrome_trace",
    "counters_to_snapshot",
    "load_flight",
    "write_flight",
    "merge_snapshots",
    "relabel_snapshot",
    "render_json",
    "render_prometheus",
    "stamp_remote",
    "strip_partials",
    "tee_sinks",
]
