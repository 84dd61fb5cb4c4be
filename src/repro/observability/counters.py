"""Monotonic named counters recorded by instrumented solver code.

Counter names are plain strings; the canonical ones emitted by the core
pipeline are collected here as constants so tests and dashboards don't
drift from the instrumentation.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

# -- canonical counter names (the core pipeline emits exactly these) --------

#: One per :func:`repro.core.linearize.linearize` execution (cache misses
#: included, cache hits not — a hit performs no linearization).
LINEARIZE_CALLS = "linearize_calls"
#: Cache hits / misses observed by :class:`repro.engine.LinearizationCache`.
LINEARIZE_CACHE_HITS = "linearize_cache_hits"
LINEARIZE_CACHE_MISSES = "linearize_cache_misses"
#: Single-pool water-fill invocations and their price-search steps
#: (bracket moves plus regula falsi steps; the name predates the search).
WATERFILL_CALLS = "waterfill_calls"
BISECTION_ITERATIONS = "waterfill_bisection_iterations"
#: Vectorized utility-batch evaluations inside water-filling (one per
#: demand query over the whole batch).
BATCH_EVALUATIONS = "utility_batch_evaluations"
#: Grouped (per-server) water-fill price-search passes: the most bracket
#: moves of any group plus the most regula falsi steps of any group.
GROUPED_BISECTION_ITERATIONS = "grouped_bisection_iterations"
#: Algorithm 1 commit rounds (one thread committed per round).
ALG1_ROUNDS = "alg1_rounds"
#: Algorithm 2 heap operations (one peek + one update per thread).
ALG2_HEAP_OPS = "alg2_heap_ops"
#: Reclamation post-passes applied.
RECLAIM_CALLS = "reclaim_calls"
#: Trials solved through the array-first batch backend (vectorized
#: linearize / water-fill / Algorithm 2 across the trial axis).  The batch
#: path also emits every scalar counter above at per-trial-equivalent
#: totals, so this counter is *additive* information, not a replacement.
BATCH_TRIALS = "batch_trials"
#: Trials routed back to the scalar path by the harness because a chunk's
#: utilities could not be batched (e.g. ``GenericBatch`` adapters with
#: ``supports_vectorized = False``).
BATCH_FALLBACKS = "batch_fallbacks"
#: Damped price updates performed by the multiresource tatonnement
#: (``solve_multiresource(..., backend="prices")``), one per demand
#: evaluation.
PRICE_UPDATE_ITERATIONS = "price_update_iterations"
#: Final relative excess demand of each multiresource tatonnement, recorded
#: in integer parts-per-billion (counters are monotonic ints), so sweeps
#: track aggregate convergence quality exactly across workers.
PRICE_CONVERGENCE_RESIDUAL = "price_convergence_residual"

# -- allocation-service counters (emitted by repro.service.server) -----------

#: Requests received by the allocation service (all ops, accepted or not).
SERVICE_REQUESTS = "service_requests"
#: Coalesced incremental steps (one per processed batch of mutations).
SERVICE_STEPS = "service_steps"
#: Threads admitted and greedily placed / departed threads.
SERVICE_ARRIVALS = "service_arrivals"
SERVICE_DEPARTURES = "service_departures"
#: Submissions refused by admission control (queue bound or utility floor).
SERVICE_ADMISSION_REJECTS = "service_admission_rejects"
#: Full Algorithm-2 re-solves triggered (by policy or explicit request).
SERVICE_REPLANS = "service_replans"
#: Threads moved between servers by applied re-solves.
SERVICE_MIGRATIONS = "service_migrations"

# -- fleet-coordinator counters (emitted by repro.service.fleet) --------------

#: Requests routed by the fleet coordinator (all ops, across all shards).
FLEET_REQUESTS = "fleet_requests"
#: Coalesced fleet steps (one per processed batch containing mutations).
FLEET_STEPS = "fleet_steps"
#: Cross-shard rebalance passes executed (policy-triggered or requested).
FLEET_REBALANCES = "fleet_rebalances"
#: Threads migrated between shards by applied cross-shard rebalances.
FLEET_MIGRATIONS = "fleet_migrations"
#: Candidate moves attempted but rolled back (no fleet-utility gain).
FLEET_MIGRATION_ROLLBACKS = "fleet_migration_rollbacks"


class Counters(Mapping[str, int]):
    """A mapping of monotonic named counters.

    Reads behave like a read-only ``dict``: a name never counted is
    missing (``counters[name]`` raises :class:`KeyError`), so a caller
    that means zero writes ``counters.get(name, 0)``.  Writes go through
    :meth:`add` only, keeping counters append-only.
    """

    def __init__(self) -> None:
        self._values: dict[str, int] = {}

    def add(self, name: str, n: int = 1) -> None:
        """Increment ``name`` by ``n`` (``n`` must be nonnegative)."""
        if n < 0:
            raise ValueError(f"counters are monotonic; cannot add {n} to {name!r}")
        self._values[name] = self._values.get(name, 0) + int(n)

    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy (safe to serialize or diff)."""
        return dict(self._values)

    def merge(self, other: Mapping[str, int]) -> None:
        """Add every counter of ``other`` into this one."""
        for name, value in other.items():
            self.add(name, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Counters({inner})"
