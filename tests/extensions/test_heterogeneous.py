"""Heterogeneous-capacity extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.heterogeneous import (
    HeterogeneousProblem,
    algorithm2_hetero,
    super_optimal_hetero,
)
from repro.allocation.waterfill import water_fill
from repro.utility.functions import LogUtility

from tests.conftest import utility_lists

CAP = 10.0


def _problem(caps=(10.0, 5.0), n=5):
    fns = [LogUtility(1.0 + i, 1.0, min(caps and max(caps), CAP)) for i in range(n)]
    return HeterogeneousProblem(fns, capacities=list(caps))


def test_basic_properties():
    p = _problem((10.0, 5.0), 4)
    assert p.n_servers == 2
    assert p.n_threads == 4
    assert p.pool == 15.0


def test_rejects_bad_capacities():
    fns = [LogUtility(1.0, 1.0, 5.0)]
    with pytest.raises(ValueError):
        HeterogeneousProblem(fns, capacities=[])
    with pytest.raises(ValueError):
        HeterogeneousProblem(fns, capacities=[-1.0])
    with pytest.raises(ValueError):
        HeterogeneousProblem(fns, capacities=[[1.0, 2.0]])


def test_rejects_cap_above_largest_server():
    fns = [LogUtility(1.0, 1.0, 20.0)]
    with pytest.raises(ValueError, match="largest server"):
        HeterogeneousProblem(fns, capacities=[10.0, 5.0])


def test_super_optimal_uses_pool():
    p = _problem((10.0, 5.0), 5)
    so = super_optimal_hetero(p)
    assert float(np.sum(so.allocations)) == pytest.approx(15.0, rel=1e-9)


def test_solution_feasible_per_server():
    p = _problem((10.0, 6.0, 3.0), 8)
    sol = algorithm2_hetero(p)
    loads = np.bincount(sol.servers, weights=sol.allocations, minlength=3)
    assert np.all(loads <= p.capacities + 1e-9)
    assert np.all(sol.allocations >= -1e-12)


def test_equal_capacities_match_homogeneous_solver():
    from repro.core.problem import AAProblem
    from repro.core.solve import solve

    fns = [LogUtility(1.0 + i, 1.0, CAP) for i in range(6)]
    hetero = HeterogeneousProblem(fns, capacities=[CAP, CAP])
    homo = AAProblem(fns, 2, CAP)
    a = algorithm2_hetero(hetero)
    b = solve(homo)
    assert a.total_utility == pytest.approx(b.total_utility, rel=1e-9)


def test_certified_ratio_reasonable():
    p = _problem((10.0, 7.0, 2.0), 9)
    sol = algorithm2_hetero(p)
    assert 0.7 <= sol.certified_ratio <= 1.0 + 1e-9


def test_reclaim_flag_improves_or_matches():
    p = _problem((10.0, 4.0), 7)
    raw = algorithm2_hetero(p, reclaim=False)
    rec = algorithm2_hetero(p, reclaim=True)
    assert rec.total_utility >= raw.total_utility - 1e-9


@settings(max_examples=25, deadline=None)
@given(
    utility_lists(1, 6, cap=5.0),
    st.lists(st.floats(min_value=5.0, max_value=20.0), min_size=1, max_size=4),
)
def test_random_instances_feasible_and_bounded(fns, caps):
    p = HeterogeneousProblem(fns, capacities=caps)
    sol = algorithm2_hetero(p)
    loads = np.bincount(sol.servers, weights=sol.allocations, minlength=p.n_servers)
    assert np.all(loads <= p.capacities + 1e-6)
    assert sol.total_utility <= sol.upper_bound + 1e-6 * (1 + sol.upper_bound)


def _per_server_water_fill(problem, servers):
    """Reference reclaim: one scalar water-fill per nonempty server."""
    alloc = np.zeros(problem.n_threads)
    for j in range(problem.n_servers):
        members = np.nonzero(servers == j)[0]
        if members.size:
            res = water_fill(problem.utilities.subset(members), float(problem.capacities[j]))
            alloc[members] = res.allocations
    return alloc


@settings(max_examples=25, deadline=None)
@given(
    utility_lists(1, 8, cap=5.0),
    st.lists(st.floats(min_value=5.0, max_value=20.0), min_size=1, max_size=4),
)
def test_reclaim_matches_per_server_water_fill(fns, caps):
    p = HeterogeneousProblem(fns, capacities=caps)
    sol = algorithm2_hetero(p)
    assert np.array_equal(sol.servers, algorithm2_hetero(p, reclaim=False).servers)
    ref = _per_server_water_fill(p, sol.servers)
    assert sol.total_utility == pytest.approx(p.utilities.total(ref), rel=1e-6, abs=1e-6)
    loads = np.bincount(sol.servers, weights=sol.allocations, minlength=p.n_servers)
    assert np.all(loads <= p.capacities + 1e-6 * np.maximum(p.capacities, 1.0))
