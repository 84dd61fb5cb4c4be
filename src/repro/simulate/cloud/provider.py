"""Cloud provider: place and size VMs to maximize revenue.

Wraps the AA solver in provider-facing terms: machines, requests, revenue,
and a provisioning report (which requests landed where, at what size, and
which were admitted with zero resource — i.e. effectively rejected).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import AAProblem
from repro.core.solve import solve
from repro.engine import SolveContext
from repro.simulate.cloud.vm import VMRequest
from repro.utility.batch import GenericBatch
from repro.utils.rng import SeedLike

#: A request sized below this fraction of a machine counts as rejected.
_REJECT_FRACTION = 1e-6


@dataclass(frozen=True)
class ProvisioningPlan:
    """Outcome of one planning round.

    ``machines[i]`` / ``sizes[i]`` give request ``i``'s placement and VM
    size; ``revenue`` is the total payment; ``rejected`` lists requests
    that received (essentially) no resource.
    """

    requests: list[VMRequest]
    machines: np.ndarray
    sizes: np.ndarray
    revenue: float
    upper_bound: float

    @property
    def rejected(self) -> list[str]:
        cut = _REJECT_FRACTION * max(float(np.max(self.sizes, initial=0.0)), 1.0)
        return [r.name for r, s in zip(self.requests, self.sizes) if s <= cut]

    @property
    def certified_ratio(self) -> float:
        """Revenue as a fraction of the super-optimal upper bound."""
        if self.upper_bound == 0.0:
            return 1.0
        return self.revenue / self.upper_bound


class CloudProvider:
    """``n_machines`` homogeneous machines with ``capacity`` resource each."""

    def __init__(self, n_machines: int, capacity: float):
        if n_machines < 1:
            raise ValueError("need at least one machine")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.n_machines = int(n_machines)
        self.capacity = float(capacity)

    def problem_for(self, requests: list[VMRequest]) -> AAProblem:
        """The AA instance induced by a request portfolio."""
        batch = GenericBatch([r.utility for r in requests])
        return AAProblem(batch, n_servers=self.n_machines, capacity=self.capacity)

    def plan(
        self,
        requests: list[VMRequest],
        method: str = "alg2",
        seed: SeedLike = None,
        ctx: SolveContext | None = None,
    ) -> ProvisioningPlan:
        """Produce a provisioning plan with the chosen planner.

        ``method`` is any solver name from the :mod:`repro.engine`
        registry — ``"alg2"``/``"alg1"`` (paper algorithms + reclamation)
        or a heuristic name (``"UU"``, ``"UR"``, ``"RU"``, ``"RR"``).
        """
        if not requests:
            return ProvisioningPlan(
                requests=[],
                machines=np.zeros(0, dtype=np.int64),
                sizes=np.zeros(0),
                revenue=0.0,
                upper_bound=0.0,
            )
        sol = solve(self.problem_for(requests), method, ctx=ctx, seed=seed)
        return ProvisioningPlan(
            requests=list(requests),
            machines=sol.assignment.servers,
            sizes=sol.assignment.allocations,
            revenue=sol.total_utility,
            upper_bound=sol.super_optimal_utility,
        )

    def compare_methods(
        self,
        requests: list[VMRequest],
        methods=("alg2", "UU", "UR", "RU", "RR"),
        seed: SeedLike = None,
        ctx: SolveContext | None = None,
    ) -> dict[str, ProvisioningPlan]:
        """Plan the same portfolio under several planners (shared seed).

        With a ``ctx`` carrying a :class:`~repro.engine.LinearizationCache`
        the super-optimal precomputation is done once and shared by every
        contender instead of once per method.
        """
        return {m: self.plan(requests, method=m, seed=seed, ctx=ctx) for m in methods}
