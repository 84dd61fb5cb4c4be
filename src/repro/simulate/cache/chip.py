"""End-to-end multicore cache-partitioning substrate.

The pipeline a real deployment would run, on synthetic traces:

1. profile every thread's trace once (stack distances → hit curves);
2. plan jointly with the paper's Algorithm 2 (utilities = concave
   envelopes of the hit curves, servers = cores, C = cache ways);
3. round the plan to integer ways with an exact per-core MCKP;
4. *measure* realized hits on the true (possibly non-concave) curves.

Because LRU way-partitions are private LRU caches, realized hits are exact
from the profile — no second simulation pass is needed (and the test suite
cross-checks the profiler against a direct LRU simulator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocation.mckp import MCKPItem, mckp_dp
from repro.core.problem import AAProblem
from repro.core.solve import solve
from repro.engine import SolveContext
from repro.simulate.cache.curves import envelope_gap, hit_curve_batch
from repro.simulate.cache.lru import hits_by_capacity, stack_distances
from repro.utils.rng import SeedLike


def profile_traces(traces, ways: int) -> np.ndarray:
    """Hit curves ``(n_threads, ways+1)`` from one profiling pass per trace."""
    if ways < 1:
        raise ValueError("need at least one cache way")
    curves = []
    for trace in traces:
        curves.append(hits_by_capacity(stack_distances(np.asarray(trace)), ways))
    return np.asarray(curves, dtype=float)


@dataclass(frozen=True)
class PartitionPlan:
    """A planned and measured cache partitioning.

    Attributes
    ----------
    cores:
        Core index per thread.
    ways:
        Integer way grant per thread (per-core grants sum to the core's ways).
    planned_utility:
        Total utility the planner believed (on envelope curves).
    realized_hits:
        Total hits actually achieved on the true curves.
    max_envelope_gap:
        Largest per-thread envelope-vs-true gap (0 = concavity was exact).
    """

    cores: np.ndarray
    ways: np.ndarray
    planned_utility: float
    realized_hits: float
    max_envelope_gap: float


def _integer_ways(hit_curves: np.ndarray, cores: np.ndarray, ways: int) -> np.ndarray:
    """Exact integer way split per core, by MCKP on the *true* hit curves."""
    units = np.zeros(hit_curves.shape[0], dtype=np.int64)
    for core in np.unique(cores):
        members = np.nonzero(cores == core)[0]
        classes = [
            [MCKPItem(w, float(hit_curves[i, w])) for w in range(ways + 1)]
            for i in members
        ]
        sol = mckp_dp(classes, ways)
        units[members] = [classes[k][sol.choices[k]].weight for k in range(len(members))]
    return units


def plan_partitioning(
    traces,
    n_cores: int,
    ways: int,
    method: str = "alg2",
    seed: SeedLike = None,
    objective: str = "hits",
    ipc_model=None,
    ctx: SolveContext | None = None,
) -> PartitionPlan:
    """Profile, plan, round and measure a shared-cache partitioning.

    Parameters
    ----------
    traces:
        One address trace per thread.
    n_cores:
        Number of cores, each with a ``ways``-way partitionable cache.
    ways:
        Ways per core (the AA capacity ``C``).
    method:
        Any solver name from the :mod:`repro.engine` registry —
        ``"alg2"`` / ``"alg1"`` (paper algorithms, reclaimed) or one of
        the heuristic names ``"UU"``, ``"UR"``, ``"RU"``, ``"RR"``.
    seed:
        Randomness for the stochastic heuristics.
    ctx:
        Optional :class:`~repro.engine.SolveContext` (counters, spans,
        deadline, shared linearization cache).
    objective:
        ``"hits"`` (total hits; default) or ``"ipc"`` (total IPC under an
        analytic model — the architecture-paper objective).  ``realized_hits``
        and ``planned_utility`` are in the chosen objective's units.
    ipc_model:
        Optional :class:`repro.simulate.cache.ipc.IPCModel` for the
        ``"ipc"`` objective.
    """
    hit_curves = profile_traces(traces, ways)
    if objective == "ipc":
        from repro.simulate.cache.ipc import IPCModel, ipc_curves

        accesses = np.array([len(np.asarray(t)) for t in traces], dtype=float)
        hit_curves = ipc_curves(hit_curves, accesses, ipc_model or IPCModel())
    elif objective != "hits":
        raise ValueError(f"objective must be 'hits' or 'ipc', got {objective!r}")
    batch = hit_curve_batch(hit_curves, envelope=True)
    problem = AAProblem(batch, n_servers=n_cores, capacity=float(ways))

    sol = solve(problem, method, ctx=ctx, seed=seed)

    cores = sol.assignment.servers
    units = _integer_ways(hit_curves, cores, ways)
    realized = float(hit_curves[np.arange(hit_curves.shape[0]), units].sum())
    return PartitionPlan(
        cores=cores,
        ways=units,
        planned_utility=sol.total_utility,
        realized_hits=realized,
        max_envelope_gap=float(np.max(envelope_gap(hit_curves), initial=0.0)),
    )
