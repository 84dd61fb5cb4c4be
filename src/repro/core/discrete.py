"""Discrete (integer-unit) AA pipeline.

The paper's complexity statements (``O(n (log mC)^2)``) treat ``C`` as an
integer number of resource units — cache ways, memory pages, CPU shares.
This module mirrors the continuous pipeline on a unit grid:

* :func:`linearize_discrete` — super-optimal allocation over ``m·C`` units
  via the Galil-style threshold bisection (the paper's reference [16]);
* :func:`algorithm2_discrete` — Algorithm 2 with unit-granular grants;
* :func:`reclaim_discrete` — per-server Fox greedy hand-out of stranded
  units (the discrete analogue of the reclamation pass).

Grants are exact multiples of ``unit``; as ``unit → 0`` the results
converge to the continuous pipeline (asserted in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocation.fox import fox_greedy
from repro.allocation.galil import galil_discrete
from repro.core.algorithm2 import max_residual_walk, two_key_order
from repro.core.problem import AAProblem, Assignment


@dataclass(frozen=True)
class DiscreteLinearization:
    """Integer super-optimal allocation and linearized ramp parameters."""

    units_hat: np.ndarray
    c_hat: np.ndarray
    top: np.ndarray
    slope: np.ndarray
    super_optimal_utility: float
    unit: float
    capacity_units: int


def linearize_discrete(problem: AAProblem, unit: float = 1.0) -> DiscreteLinearization:
    """Discrete Definition V.1: optimally split ``m·C`` units of size ``unit``.

    ``capacity_units = floor(C / unit)`` per server; each thread's grant is
    additionally capped by its utility's own domain.
    """
    if unit <= 0:
        raise ValueError(f"unit must be positive, got {unit!r}")
    capacity_units = int(np.floor(problem.capacity / unit + 1e-12))
    if capacity_units < 1:
        raise ValueError(
            f"unit {unit!r} larger than the server capacity {problem.capacity!r}"
        )
    budget_units = problem.n_servers * capacity_units
    result = galil_discrete(problem.utilities, budget_units, unit)
    # galil caps per-thread units by the utility domain; additionally cap by
    # one server's units (a thread cannot span servers).
    units = np.minimum(result.units, capacity_units)
    c_hat = np.minimum(units * unit, problem.utilities.caps)
    top = np.asarray(problem.utilities.value(c_hat), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(c_hat > 0, top / np.where(c_hat > 0, c_hat, 1.0), 0.0)
    return DiscreteLinearization(
        units_hat=units,
        c_hat=c_hat,
        top=top,
        slope=slope,
        super_optimal_utility=float(np.sum(top)),
        unit=float(unit),
        capacity_units=capacity_units,
    )


def algorithm2_discrete(
    problem: AAProblem, dlin: DiscreteLinearization | None = None, unit: float = 1.0
) -> Assignment:
    """Algorithm 2 on the unit grid: grants are integer multiples of ``unit``."""
    if dlin is None:
        dlin = linearize_discrete(problem, unit)
    m = problem.n_servers
    servers, units = max_residual_walk(
        two_key_order(dlin.top, dlin.slope, m),
        dlin.units_hat,
        np.full(m, dlin.capacity_units, dtype=np.int64),
    )
    alloc = np.minimum(units * dlin.unit, problem.utilities.caps)
    return Assignment(servers=servers, allocations=alloc)


def reclaim_discrete(
    problem: AAProblem, assignment: Assignment, unit: float = 1.0
) -> Assignment:
    """Per-server Fox greedy re-allocation of each server's full unit budget.

    Discrete analogue of :func:`repro.core.postprocess.reclaim`: exact for
    the unit-granular per-server subproblem, never decreases utility.
    """
    if unit <= 0:
        raise ValueError(f"unit must be positive, got {unit!r}")
    capacity_units = int(np.floor(problem.capacity / unit + 1e-12))
    servers = np.asarray(assignment.servers, dtype=np.int64)
    alloc = np.zeros(problem.n_threads)
    for j in np.unique(servers):
        members = np.nonzero(servers == j)[0]
        sub = problem.utilities.subset(members)
        res = fox_greedy(sub, capacity_units, unit)
        alloc[members] = res.allocations
    return Assignment(servers=servers, allocations=alloc)


def solve_discrete(
    problem: AAProblem, unit: float = 1.0, reclaim: bool = True
) -> tuple[Assignment, DiscreteLinearization]:
    """Full discrete pipeline; returns the assignment and its linearization."""
    dlin = linearize_discrete(problem, unit)
    assignment = algorithm2_discrete(problem, dlin)
    if reclaim:
        assignment = reclaim_discrete(problem, assignment, unit)
    assignment.validate(problem)
    return assignment, dlin
