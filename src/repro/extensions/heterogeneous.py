"""Heterogeneous-capacity servers (paper future work, Section VIII).

The paper proves its guarantee for homogeneous servers only.  This module
extends Algorithm 2's mechanics to servers with differing capacities
``C_1..C_m``: the super-optimal pool becomes ``sum C_j``, the per-thread
cap in the pool relaxation is the *largest* server (a thread cannot use
more than one server), and assignment is the same two-key order and
:func:`~repro.core.algorithm2.max_residual_walk`, started from the
heterogeneous capacities.  No approximation factor is claimed
— the instance below `algorithm2_hetero`'s docstring shows the homogeneous
analysis does not transfer — but the solver still reports the certified
``F / F̂`` ratio per instance, and reclamation applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocation.grouped import water_fill_grouped
from repro.allocation.waterfill import water_fill
from repro.core.algorithm2 import max_residual_walk, two_key_order
from repro.utility.batch import UtilityBatch, as_batch


class HeterogeneousProblem:
    """AA with per-server capacities ``capacities[j]``.

    Thread utility domains must fit the largest server.
    """

    def __init__(self, utilities, capacities):
        self.utilities: UtilityBatch = as_batch(utilities)
        self.capacities = np.asarray(capacities, dtype=float)
        if self.capacities.ndim != 1 or self.capacities.size < 1:
            raise ValueError("capacities must be a non-empty 1-D array")
        if np.any(self.capacities <= 0) or not np.all(np.isfinite(self.capacities)):
            raise ValueError("capacities must be positive and finite")
        cmax = float(np.max(self.capacities))
        if np.any(self.utilities.caps > cmax * (1 + 1e-9)):
            raise ValueError("every utility cap must fit the largest server")

    @property
    def n_threads(self) -> int:
        return len(self.utilities)

    @property
    def n_servers(self) -> int:
        return self.capacities.shape[0]

    @property
    def pool(self) -> float:
        return float(np.sum(self.capacities))


@dataclass(frozen=True)
class HeteroSolution:
    """Assignment, utility and the pool upper bound for a hetero instance."""

    servers: np.ndarray
    allocations: np.ndarray
    total_utility: float
    upper_bound: float

    @property
    def certified_ratio(self) -> float:
        if self.upper_bound == 0.0:
            return 1.0
        return self.total_utility / self.upper_bound


def super_optimal_hetero(problem: HeterogeneousProblem, ctx=None):
    """Pool relaxation: optimally split ``sum C_j`` ignoring server walls."""
    cmax = float(np.max(problem.capacities))
    caps = np.minimum(problem.utilities.caps, cmax)
    # Water-fill respects the batch's own caps; they are already <= cmax.
    return water_fill(problem.utilities, min(problem.pool, float(np.sum(caps))), ctx=ctx)


def algorithm2_hetero(
    problem: HeterogeneousProblem, reclaim: bool = True, ctx=None
) -> HeteroSolution:
    """Algorithm 2's greedy, generalized to heterogeneous residuals.

    Heuristic only: with capacities (2, 1), one thread wanting 2 and two
    wanting 1, a bad tie order can strand the size-2 thread — the
    homogeneous proof's Lemma V.8 ("the first m threads are full") fails.
    Empirically the certified ratio stays high; see the extensions tests.
    """
    so = super_optimal_hetero(problem, ctx=ctx)
    c_hat = so.allocations
    top = np.asarray(problem.utilities.value(c_hat), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(c_hat > 0, top / np.where(c_hat > 0, c_hat, 1.0), 0.0)

    order = two_key_order(top, slope, problem.n_servers)
    servers, alloc = max_residual_walk(order, c_hat, problem.capacities, ctx)
    if reclaim:
        alloc = water_fill_grouped(
            problem.utilities, servers, problem.capacities, ctx=ctx
        ).allocations

    total = problem.utilities.total(alloc)
    return HeteroSolution(
        servers=servers,
        allocations=alloc,
        total_utility=total,
        upper_bound=so.total_utility,
    )


def _run_registered(problem, lin, ctx, seed):
    """Engine adapter: expects a :class:`HeterogeneousProblem` instance."""
    from repro.core.problem import Assignment

    if not isinstance(problem, HeterogeneousProblem):
        raise TypeError(
            "solver 'alg2_hetero' requires a HeterogeneousProblem, "
            f"got {type(problem).__name__}"
        )
    sol = algorithm2_hetero(problem, ctx=ctx)
    return Assignment(servers=sol.servers, allocations=sol.allocations)


def _register() -> None:
    from repro.engine.registry import register_solver

    # No ratio: the homogeneous proof does not transfer (see the module
    # docstring); the per-instance certified ratio is still reported.
    register_solver(
        "alg2_hetero",
        _run_registered,
        kind="extension",
        ratio=None,
        complexity="O(n(log mC)²)",
        reclaim=False,
        uses_linearization=False,
        description="Algorithm 2 greedy over heterogeneous server residuals",
    )


_register()
