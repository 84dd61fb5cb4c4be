"""Hosting center: place web services and size their capacity grants.

Paper Section I, second application (and Chase et al. [2]): a hosting
center runs many web services on a fleet of servers; each service's
utility is the business value of its goodput, a concave function of the
processing capacity it is granted.  Planning maps onto AA; measurement
replays each service through the M/M/1/K simulator at its granted
capacity, closing the plan-vs-measured loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import AAProblem
from repro.core.solve import solve
from repro.engine import SolveContext
from repro.simulate.cache.curves import concave_envelope
from repro.simulate.hosting.queueing import mm1k_goodput, simulate_mm1k
from repro.utility.batch import GenericBatch
from repro.utility.functions import PiecewiseLinearUtility
from repro.utils.rng import SeedLike, as_generator, spawn_generators


@dataclass(frozen=True)
class WebService:
    """One hosted service.

    Attributes
    ----------
    name:
        Display identifier.
    arrival_rate:
        Poisson request rate ``lam``.
    value_per_request:
        Revenue per served request.
    rate_per_unit:
        Service rate per unit of granted capacity (``mu = rate_per_unit * c``).
    buffer_size:
        M/M/1/K buffer (requests beyond it are dropped).
    """

    name: str
    arrival_rate: float
    value_per_request: float
    rate_per_unit: float
    buffer_size: int = 16

    def __post_init__(self):
        if self.arrival_rate < 0 or self.value_per_request < 0:
            raise ValueError("rates and values must be nonnegative")
        if self.rate_per_unit <= 0 or self.buffer_size < 1:
            raise ValueError("need rate_per_unit > 0 and buffer_size >= 1")

    def goodput(self, capacity: float) -> float:
        """Closed-form goodput at capacity grant ``capacity`` (0 at 0)."""
        if capacity <= 0 or self.arrival_rate == 0:
            return 0.0
        return mm1k_goodput(
            self.arrival_rate, self.rate_per_unit * capacity, self.buffer_size
        )

    def utility(self, capacity: float, grid_points: int = 33) -> PiecewiseLinearUtility:
        """Concave planning utility: envelope of value-weighted goodput.

        Goodput is sampled on a uniform grid of ``grid_points`` capacities
        and replaced by its least concave majorant — M/M/1/K goodput is
        not provably concave in the grant, and the AA model needs it to be.
        """
        xs = np.linspace(0.0, capacity, grid_points)
        ys = np.array([self.value_per_request * self.goodput(x) for x in xs])
        ys = concave_envelope(ys)
        return PiecewiseLinearUtility(xs, ys, cap=capacity)


def random_services(
    n: int, seed: SeedLike = None, buffer_size: int = 16
) -> list[WebService]:
    """A random service mix: mostly small sites, a few heavy hitters."""
    rng = as_generator(seed)
    services = []
    for k in range(n):
        heavy = rng.uniform() < 0.2
        lam = float(rng.uniform(20.0, 60.0)) if heavy else float(rng.uniform(2.0, 12.0))
        services.append(
            WebService(
                name=f"svc-{k:03d}",
                arrival_rate=lam,
                value_per_request=float(rng.lognormal(0.0, 0.5)),
                rate_per_unit=float(rng.uniform(0.5, 2.0)),
                buffer_size=buffer_size,
            )
        )
    return services


@dataclass(frozen=True)
class HostingPlan:
    """Planned placement plus the planner's believed value."""

    services: list[WebService]
    servers: np.ndarray
    grants: np.ndarray
    planned_value: float
    upper_bound: float


class HostingCenter:
    """``n_servers`` identical servers with ``capacity`` processing units."""

    def __init__(self, n_servers: int, capacity: float):
        if n_servers < 1 or capacity <= 0:
            raise ValueError("need n_servers >= 1 and capacity > 0")
        self.n_servers = int(n_servers)
        self.capacity = float(capacity)

    def problem_for(self, services: list[WebService]) -> AAProblem:
        batch = GenericBatch([s.utility(self.capacity) for s in services])
        return AAProblem(batch, n_servers=self.n_servers, capacity=self.capacity)

    def plan(
        self,
        services: list[WebService],
        method: str = "alg2",
        seed: SeedLike = None,
        ctx: SolveContext | None = None,
    ) -> HostingPlan:
        """Place and size all services with the chosen planner.

        ``method`` is any solver name from the :mod:`repro.engine`
        registry; ``ctx`` optionally carries counters, a deadline and the
        shared linearization cache.
        """
        sol = solve(self.problem_for(services), method, ctx=ctx, seed=seed)
        return HostingPlan(
            services=list(services),
            servers=sol.assignment.servers,
            grants=sol.assignment.allocations,
            planned_value=sol.total_utility,
            upper_bound=sol.super_optimal_utility,
        )

    def measure(
        self, plan: HostingPlan, horizon: float = 500.0, seed: SeedLike = None
    ) -> float:
        """Realized value: simulate every service's queue at its grant."""
        rngs = spawn_generators(seed, len(plan.services))
        total = 0.0
        for service, grant, rng in zip(plan.services, plan.grants, rngs):
            if grant <= 0 or service.arrival_rate == 0:
                continue
            stats = simulate_mm1k(
                service.arrival_rate,
                service.rate_per_unit * float(grant),
                service.buffer_size,
                horizon,
                seed=rng,
            )
            total += service.value_per_request * stats["goodput"]
        return total
