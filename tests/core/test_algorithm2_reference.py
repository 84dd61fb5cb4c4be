"""Algorithm 2's max-residual walk vs a heap-free reference walk.

The production walk (:func:`repro.core.algorithm2.max_residual_walk`)
keeps a ``heapq`` list of ``(-residual, server)`` keys; the naive walk
below rescans the residual array with ``np.argmax`` each step.  Any
divergence flags a heap bug — the two must agree *bit for bit* (same
tie-breaking: max residual, then lowest server id), for every caller of
the walk: :func:`algorithm2`, :func:`algorithm2_discrete` and the
heterogeneous-capacity greedy.  The production walk settles zero-demand
threads without touching the heap, so the walk is also driven directly
with zeros (and ``-0.0``) anywhere in the order, and its heap work and
deadline polling are pinned.
"""

import heapq
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm2 import (
    algorithm2,
    max_residual_walk,
    thread_order,
    two_key_order,
)
from repro.core.discrete import algorithm2_discrete, linearize_discrete
from repro.core.linearize import linearize
from repro.core.problem import AAProblem
from repro.engine import SolveContext, SolveTimeout
from repro.extensions.heterogeneous import (
    HeterogeneousProblem,
    algorithm2_hetero,
    super_optimal_hetero,
)
from repro.observability import ALG2_HEAP_OPS
from repro.utility.functions import LinearUtility, LogUtility, ZeroUtility
from repro.workloads.generators import UniformDistribution, make_problem

from tests.conftest import CAP, aa_problems, utility_lists


def _naive_walk(order, demand, residuals):
    residual = np.array(residuals, dtype=float)
    servers = np.full(len(demand), -1, dtype=np.int64)
    grants = np.zeros(len(demand))
    for i in order:
        j = int(np.argmax(residual))  # first max = lowest id on ties
        c = min(float(demand[i]), float(residual[j]))
        servers[i] = j
        grants[i] = c
        residual[j] -= c
    return servers, grants


def _assert_bit_identical(fast, slow):
    np.testing.assert_allclose(fast, slow, rtol=0, atol=0)
    assert np.array_equal(np.signbit(fast), np.signbit(slow))


def _check_algorithm2(problem: AAProblem) -> None:
    lin = linearize(problem)
    fast = algorithm2(problem, lin)
    servers, alloc = _naive_walk(
        thread_order(lin, problem.n_servers),
        lin.c_hat,
        np.full(problem.n_servers, problem.capacity),
    )
    assert np.array_equal(fast.servers, servers)
    _assert_bit_identical(fast.allocations, alloc)


def _check_discrete(problem: AAProblem, unit: float) -> None:
    dlin = linearize_discrete(problem, unit)
    fast = algorithm2_discrete(problem, dlin)
    servers, units = _naive_walk(
        two_key_order(dlin.top, dlin.slope, problem.n_servers),
        dlin.units_hat,
        np.full(problem.n_servers, float(dlin.capacity_units)),
    )
    assert np.array_equal(fast.servers, servers)
    _assert_bit_identical(
        fast.allocations, np.minimum(units * dlin.unit, problem.utilities.caps)
    )


def _check_hetero(problem: HeterogeneousProblem) -> None:
    fast = algorithm2_hetero(problem, reclaim=False)
    c_hat = super_optimal_hetero(problem).allocations
    top = np.asarray(problem.utilities.value(c_hat), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(c_hat > 0, top / np.where(c_hat > 0, c_hat, 1.0), 0.0)
    servers, alloc = _naive_walk(
        two_key_order(top, slope, problem.n_servers), c_hat, problem.capacities
    )
    assert np.array_equal(fast.servers, servers)
    _assert_bit_identical(fast.allocations, alloc)


# -- hypothesis instances ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(aa_problems(max_threads=9, max_servers=4))
def test_heap_matches_naive_exactly(problem):
    _check_algorithm2(problem)


@settings(max_examples=40, deadline=None)
@given(aa_problems(max_threads=9, max_servers=4), st.sampled_from([0.5, 1.0, 2.5]))
def test_algorithm2_discrete_matches_naive_walk(problem, unit):
    _check_discrete(problem, unit)


@settings(max_examples=40, deadline=None)
@given(
    utility_lists(1, 9, cap=5.0),
    st.lists(
        st.sampled_from([5.0, 7.5, 10.0, 20.0]) | st.floats(min_value=5.0, max_value=20.0),
        min_size=1,
        max_size=4,
    ),
)
def test_hetero_greedy_matches_naive_walk(fns, caps):
    _check_hetero(HeterogeneousProblem(fns, capacities=caps))


# -- the walk itself, zero demands anywhere ----------------------------------


@st.composite
def _walks(draw):
    """``(order, demand, residuals)`` with many zero demands and tied residuals."""
    cap = draw(st.sampled_from([1.0, 10.0]))
    n = draw(st.integers(min_value=0, max_value=14))
    demand = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, -0.0, 0.0, cap, 0.5 * cap])
                | st.floats(min_value=0.0, max_value=1.5 * cap),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    )
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    residuals = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, cap]) | st.floats(min_value=0.0, max_value=cap),
                min_size=1,
                max_size=5,
            )
        ),
        dtype=float,
    )
    return order, demand, residuals


@settings(max_examples=300, deadline=None)
@given(_walks())
def test_walk_matches_naive_walk_with_zero_demands(walk):
    order, demand, residuals = walk
    ctx = SolveContext()
    servers, grants = max_residual_walk(order, demand, residuals, ctx)
    want_servers, want_grants = _naive_walk(order, demand, residuals)
    assert np.array_equal(servers, want_servers)
    _assert_bit_identical(grants, want_grants)
    assert ctx.counters[ALG2_HEAP_OPS] == 2 * demand.shape[0]


def test_heapreplace_runs_once_per_positive_demand_thread(monkeypatch):
    # Zero-demand threads (about half at the paper's sizes) never move a
    # residual, so they must not cost a heap step: a deterministic work
    # budget for the walk, with no timing in it.
    problem = make_problem(UniformDistribution(), 2_500, 8.0, 1000.0, seed=5)
    lin = linearize(problem)
    calls = []
    real = heapq.heapreplace

    def spy(heap, item):
        calls.append(item)
        return real(heap, item)

    monkeypatch.setattr(heapq, "heapreplace", spy)
    ctx = SolveContext()
    algorithm2(problem, lin, ctx=ctx)
    positive = int(np.count_nonzero(lin.c_hat > 0))
    assert 0 < positive < problem.n_threads
    assert len(calls) == positive
    assert ctx.counters[ALG2_HEAP_OPS] == 2 * problem.n_threads


def test_walk_polls_the_deadline_at_the_first_positive_demand_thread():
    problem = _edge_problems()["c_hat = 0 threads, residuals tied mid-walk"]
    lin = linearize(problem)
    assert lin.c_hat[thread_order(lin, problem.n_servers)[0]] > 0
    ctx = SolveContext(budget_s=60.0)
    ctx.deadline = time.monotonic() - 1.0  # already spent
    with pytest.raises(SolveTimeout):
        algorithm2(problem, lin, ctx=ctx)
    assert ctx.counters[ALG2_HEAP_OPS] == 2  # raised at that thread's step


# -- edge cases ---------------------------------------------------------------


def _edge_problems():
    linear = [LinearUtility(1.0, CAP)]
    zeros = [ZeroUtility(CAP)] * 3
    logs = [LogUtility(1.0 + k, 1.0, CAP) for k in range(3)]
    return {
        "no threads": AAProblem([], n_servers=3, capacity=CAP),
        "n < m, residuals tied at C": AAProblem(logs, n_servers=5, capacity=CAP),
        "n == m": AAProblem(logs, n_servers=3, capacity=CAP),
        # c_hat = 5 each on two servers of 10: both drain to a tie at 0
        "c_hat = 0 threads, residuals tied at 0": AAProblem(
            zeros + linear * 4, n_servers=2, capacity=CAP
        ),
        # c_hat = 4 each: residuals tie at 6, then at 2, mid-walk
        "c_hat = 0 threads, residuals tied mid-walk": AAProblem(
            zeros + linear * 5, n_servers=2, capacity=CAP
        ),
        "only c_hat = 0 threads": AAProblem(zeros, n_servers=2, capacity=CAP),
    }


@pytest.mark.parametrize("name", list(_edge_problems()))
def test_edge_cases_match_naive_walk(name):
    problem = _edge_problems()[name]
    _check_algorithm2(problem)
    _check_discrete(problem, 1.0)
    _check_hetero(
        HeterogeneousProblem(problem.utilities, np.full(problem.n_servers, CAP))
    )


def test_residual_ties_at_zero_go_to_lowest_server():
    problem = _edge_problems()["c_hat = 0 threads, residuals tied at 0"]
    assignment = algorithm2(problem)
    # Linear threads 3..6 (c_hat = 5) fill servers 0, 1, 0, 1 to exactly 0;
    # the zero threads then see a tie at 0 and take server 0.
    assert assignment.servers.tolist() == [0, 0, 0, 0, 1, 0, 1]
    assert assignment.allocations.tolist() == [0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0]


@pytest.mark.parametrize(
    "caps", [(10.0, 5.0), (10.0, 10.0, 3.0), (4.0, 9.0, 9.0, 4.0), (7.0,)]
)
def test_hetero_capacities_match_naive_walk(caps):
    fns = [LogUtility(1.0 + k, 1.0, 4.0) for k in range(9)]
    fns += [LinearUtility(1.0, 4.0)] * 3 + [ZeroUtility(4.0)] * 2
    _check_hetero(HeterogeneousProblem(fns, capacities=list(caps)))


# -- one large instance -------------------------------------------------------


def test_heap_matches_naive_large_instance():
    problem = make_problem(UniformDistribution(), 2_500, 8.0, 1000.0, seed=5)
    assert (problem.n_threads, problem.n_servers) == (20_000, 2_500)
    _check_algorithm2(problem)
