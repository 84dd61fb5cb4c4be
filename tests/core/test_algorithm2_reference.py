"""Algorithm 2's max-residual walk vs two reference walks.

The production walk (:func:`repro.core.algorithm2.max_residual_walk`)
moves threads in speculated blocks over a sorted server order and falls
back to ``heapq`` steps when blocks commit short.  Two oracles check it:
the naive walk rescans the residual array with ``np.argmax`` each step,
and the heap walk keeps a ``heapq`` list of ``(-residual, server)`` keys
stepped once per nonzero-demand thread (the production walk before
blocks).  All three must agree *bit for bit* (same tie-breaking: max
residual, then lowest server id), for every caller of the walk:
:func:`algorithm2`, :func:`algorithm2_discrete` and the
heterogeneous-capacity greedy.  Blocks engage only with many servers, so
the walk is also driven directly with its block and stretch sizes shrunk
to a few threads, over tiny demands, zeros (and ``-0.0``), heterogeneous
residuals and mass ties; its work and deadline polling are pinned.
"""

import heapq
import importlib
import time
from contextlib import contextmanager

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
from repro.workloads.generators import UniformDistribution, make_distribution, make_problem

from tests.conftest import CAP, aa_problems, utility_lists

walk_module = importlib.import_module("repro.core.algorithm2")


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


def _heap_walk(order, demand, residuals):
    """One peek and one ``heapreplace`` per nonzero-demand thread."""
    n = demand.shape[0]
    servers = np.full(n, -1, dtype=np.int64)
    grants = np.zeros(n, dtype=float)
    ordered = demand[order]
    zero = ordered == 0
    steps = order[~zero]
    heap = [(-r, j) for j, r in enumerate(np.asarray(residuals).tolist())]
    heapq.heapify(heap)
    picked, granted = [], []
    for d in demand[steps].tolist():
        neg, j = heap[0]
        r = -neg
        c = r if r < d else d  # min(d, r), keeping d on ties as min() does
        picked.append(j)
        granted.append(c)
        heapq.heapreplace(heap, (-(r - c), j))
    servers[steps] = picked
    grants[steps] = granted
    # Each zero-demand thread takes the next stepping thread's server.
    at = np.flatnonzero(zero)
    after = np.append(servers[steps], heap[0][1])
    servers[order[at]] = after[np.searchsorted(np.flatnonzero(~zero), at)]
    grants[order[at]] = ordered[at]
    return servers, grants


@contextmanager
def _small_blocks(min_commit, chunk):
    """The walk with blocks from ``min_commit`` threads and heap stretches of ``chunk``."""
    saved = walk_module._MIN_COMMIT, walk_module._WALK_CHUNK
    walk_module._MIN_COMMIT, walk_module._WALK_CHUNK = min_commit, chunk
    try:
        yield
    finally:
        walk_module._MIN_COMMIT, walk_module._WALK_CHUNK = saved


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


# -- the walk itself ------------------------------------------------------------


@st.composite
def _walks(draw, max_servers=5):
    """``(order, demand, residuals)`` with zeros, tiny demands and tied residuals.

    Demands mix zeros (both signs), exact fractions of the capacity, any
    value up to 1.5·C and tiny ones (at most 1e-3·C, so one server can stay
    on top for many steps).  Residuals are all C (the paper's start), or
    heterogeneous with mass ties at 0 and at C.  ``n`` may be below ``m``.
    """
    cap = draw(st.sampled_from([1.0, 10.0]))
    n = draw(st.integers(min_value=0, max_value=24))
    m = draw(st.integers(min_value=1, max_value=max_servers))
    tiny = st.floats(min_value=0.0, max_value=1e-3 * cap)
    demand = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, -0.0, 0.0, cap, 0.5 * cap])
                | st.floats(min_value=0.0, max_value=1.5 * cap)
                | tiny,
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    )
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    spread = st.lists(
        st.sampled_from([0.0, cap]) | st.floats(min_value=0.0, max_value=cap),
        min_size=m,
        max_size=m,
    )
    residuals = np.array(draw(st.just([cap] * m) | spread), dtype=float)
    return order, demand, residuals


def _check_walk(walk):
    order, demand, residuals = walk
    ctx = SolveContext()
    servers, grants = max_residual_walk(order, demand, residuals, ctx)
    for oracle in (_naive_walk, _heap_walk):
        want_servers, want_grants = oracle(order, demand, residuals)
        assert np.array_equal(servers, want_servers)
        _assert_bit_identical(grants, want_grants)
    assert ctx.counters.get(ALG2_HEAP_OPS, 0) == 2 * demand.shape[0]


@settings(max_examples=300, deadline=None)
@given(_walks())
def test_walk_matches_naive_walk_with_zero_demands(walk):
    _check_walk(walk)


@settings(max_examples=400, deadline=None)
@given(
    _walks(max_servers=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
)
def test_block_walk_matches_both_oracles(walk, min_commit, chunk):
    # Blocks of a few threads: every switch between blocks and heap
    # stretches happens within a couple of dozen threads.
    with _small_blocks(min_commit, chunk):
        _check_walk(walk)


def _adversarial(m, n, seed):
    """Tiny demands against residuals spread over 1: the top server stays on
    top for hundreds of steps, so no block can commit far."""
    rng = np.random.default_rng(seed)
    return rng.permutation(n), rng.uniform(0.0, 1e-3, n), rng.uniform(0.0, 1.0, m)


def _walk_work(monkeypatch, order, demand, residuals):
    """``(heap steps, blocks as (size, committed))`` of one walk."""
    blocks = []
    real_block = walk_module._block

    def block(keys, need, picks, given):
        p, keys = real_block(keys, need, picks, given)
        blocks.append((need.shape[0], p))
        return p, keys

    steps = []
    real_replace = heapq.heapreplace

    def replace(heap, item):
        steps.append(item)
        return real_replace(heap, item)

    monkeypatch.setattr(walk_module, "_block", block)
    monkeypatch.setattr(heapq, "heapreplace", replace)
    ctx = SolveContext()
    servers, grants = max_residual_walk(order, demand, residuals, ctx)
    monkeypatch.undo()
    want_servers, want_grants = _heap_walk(order, demand, residuals)
    assert np.array_equal(servers, want_servers)
    _assert_bit_identical(grants, want_grants)
    assert ctx.counters[ALG2_HEAP_OPS] == 2 * demand.shape[0]
    return len(steps), blocks


@pytest.mark.parametrize("name", ["paper", "adversarial"])
def test_walk_steps_once_per_positive_demand_thread(monkeypatch, name):
    # A deterministic work budget for the walk, with no timing in it.
    # Zero-demand threads (about half at the paper's sizes) never move a
    # residual, so they cost no step: every nonzero-demand thread is one
    # heap step or one committed block entry, exactly once.  A block that
    # commits short (under _MIN_COMMIT) hands over to at least one stretch
    # of heap steps, and each block speculates at most twice what the one
    # before it committed; so short blocks, and wasted speculation, stay
    # bounded by the heap steps taken.
    if name == "paper":
        problem = make_problem(UniformDistribution(), 2_500, 8.0, 1000.0, seed=5)
        lin = linearize(problem)
        walk = (thread_order(lin, problem.n_servers), lin.c_hat,
                np.full(problem.n_servers, problem.capacity))
    else:
        walk = _adversarial(1_000, 20_000, seed=3)
    heap_steps, blocks = _walk_work(monkeypatch, *walk)
    positive = int(np.count_nonzero(walk[1]))
    assert 0 < positive
    committed = sum(p for _, p in blocks)
    assert heap_steps + committed == positive
    short = sum(p < walk_module._MIN_COMMIT for _, p in blocks)
    assert short <= 1 + heap_steps // walk_module._WALK_CHUNK
    speculated = sum(k for k, _ in blocks)
    assert speculated <= 2 * committed + walk_module._MIN_COMMIT * (1 + short)
    if name == "paper":
        assert positive < walk[1].shape[0]
        assert heap_steps < 0.01 * positive  # blocks carry the walk
        assert len(blocks) <= 30
    else:
        assert short == 1  # one failed block, then heap steps throughout


def test_walk_polls_the_deadline_at_the_first_positive_demand_thread():
    problem = _edge_problems()["c_hat = 0 threads, residuals tied mid-walk"]
    lin = linearize(problem)
    assert lin.c_hat[thread_order(lin, problem.n_servers)[0]] > 0
    ctx = SolveContext(budget_s=60.0)
    ctx.deadline = time.monotonic() - 1.0  # already spent
    with pytest.raises(SolveTimeout):
        algorithm2(problem, lin, ctx=ctx)
    assert ctx.counters[ALG2_HEAP_OPS] == 2  # raised at that thread's step


def test_block_walk_polls_the_deadline_before_its_first_grant():
    problem = make_problem(UniformDistribution(), 500, 4.0, 1000.0, seed=9)
    assert problem.n_servers >= walk_module._MIN_COMMIT  # the walk opens with a block
    lin = linearize(problem)
    ctx = SolveContext(budget_s=60.0)
    ctx.deadline = time.monotonic() - 1.0  # already spent
    with pytest.raises(SolveTimeout):
        algorithm2(problem, lin, ctx=ctx)
    assert ALG2_HEAP_OPS not in ctx.counters  # no thread was granted anything


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


@settings(max_examples=60, deadline=None)
@given(
    aa_problems(max_threads=14, max_servers=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
)
def test_callers_match_naive_walk_with_small_blocks(problem, min_commit, chunk):
    with _small_blocks(min_commit, chunk):
        _check_algorithm2(problem)
        _check_discrete(problem, 1.0)
        _check_hetero(
            HeterogeneousProblem(problem.utilities, np.full(problem.n_servers, CAP))
        )


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


@pytest.mark.parametrize("dist", ["uniform", "powerlaw", "normal", "discrete"])
def test_walk_matches_heap_walk_at_n_1e5(dist):
    # The benchmark's size: blocks carry the walk here, and its servers and
    # grant bits must be the heap walk's.
    problem = make_problem(make_distribution(dist), 12_500, 8.0, 1000.0, seed=[24, 5])
    lin = linearize(problem)
    walk = (thread_order(lin, problem.n_servers), lin.c_hat,
            np.full(problem.n_servers, problem.capacity))
    servers, grants = max_residual_walk(*walk)
    want_servers, want_grants = _heap_walk(*walk)
    assert np.array_equal(servers, want_servers)
    _assert_bit_identical(grants, want_grants)
