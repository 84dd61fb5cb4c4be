"""UU / UR / RU / RR heuristics: feasibility, structure, known optima."""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.heuristics import (
    HEURISTICS,
    _spacings_gaps,
    _trial_groups,
    random_split,
    random_split_batch,
    round_robin_servers,
    rr,
    ru,
    uniform_split,
    ur,
    uu,
)
from repro.core.batch import BatchProblem
from repro.core.problem import AAProblem
from repro.utility.batch import PowerBatch
from repro.utility.functions import LogUtility
from repro.utils.rng import TrialStreams, as_generator

from tests.conftest import CAP, aa_problems


def _problem(n=8, m=3):
    return AAProblem([LogUtility(1.0 + i, 1.0, CAP) for i in range(n)], m, CAP)


@pytest.mark.parametrize("name", list(HEURISTICS))
def test_heuristics_produce_feasible_assignments(name):
    p = _problem()
    HEURISTICS[name](p, seed=7).validate(p)


@settings(max_examples=25, deadline=None)
@given(aa_problems(max_threads=8, max_servers=4))
def test_heuristics_feasible_on_random_instances(problem):
    for name, h in HEURISTICS.items():
        h(problem, seed=3).validate(problem)


def test_round_robin_pattern():
    assert round_robin_servers(7, 3).tolist() == [0, 1, 2, 0, 1, 2, 0]


def test_uu_equal_shares():
    p = _problem(6, 3)
    a = uu(p)
    assert a.allocations == pytest.approx(np.full(6, CAP / 2))


def test_uu_single_thread_per_server_gets_everything():
    p = _problem(3, 3)
    a = uu(p)
    assert a.allocations == pytest.approx(np.full(3, CAP))


def test_uu_is_optimal_at_beta_one_with_identical_threads():
    """Paper Sec VII-A: at beta = 1, UU places one thread per server with
    all resources — the optimum."""
    from repro.core.solve import solve

    p = _problem(4, 4)
    sol = solve(p)
    assert uu(p).total_utility(p) == pytest.approx(sol.total_utility, rel=1e-9)


def test_uu_deterministic_ignores_seed():
    p = _problem()
    a = uu(p, seed=1)
    b = uu(p, seed=999)
    assert np.array_equal(a.servers, b.servers)
    assert a.allocations == pytest.approx(b.allocations)


def test_ur_round_robin_but_random_split():
    p = _problem(6, 3)
    a = ur(p, seed=0)
    assert np.array_equal(a.servers, round_robin_servers(6, 3))
    # Random split: extremely unlikely to be exactly equal.
    assert not np.allclose(a.allocations, CAP / 2)


def test_ru_random_assignment_uniform_split():
    p = _problem(40, 4)
    a = ru(p, seed=0)
    counts = np.bincount(a.servers, minlength=4)
    shares = a.allocations * counts[a.servers]
    assert shares == pytest.approx(np.full(40, CAP))


def test_rr_reproducible_by_seed():
    p = _problem()
    a = rr(p, seed=42)
    b = rr(p, seed=42)
    assert np.array_equal(a.servers, b.servers)
    assert a.allocations == pytest.approx(b.allocations)


def test_rr_seeds_differ():
    p = _problem(30, 3)
    a = rr(p, seed=1)
    b = rr(p, seed=2)
    assert not np.array_equal(a.servers, b.servers) or not np.allclose(
        a.allocations, b.allocations
    )


def test_random_split_sums_to_capacity_per_server():
    p = _problem(9, 3)
    servers = round_robin_servers(9, 3)
    rng = np.random.default_rng(0)
    alloc = random_split(p, servers, rng)
    # Caps are CAP here, so no clipping: each server's split sums to C.
    loads = np.bincount(servers, weights=alloc, minlength=3)
    assert loads == pytest.approx(np.full(3, CAP))


def test_uniform_split_clips_to_thread_caps():
    from repro.utility.functions import LinearUtility

    fns = [LinearUtility(1.0, 2.0), LinearUtility(1.0, CAP)]
    p = AAProblem(fns, 1, CAP)
    alloc = uniform_split(p, np.array([0, 0]))
    assert alloc[0] == pytest.approx(2.0)
    assert alloc[1] == pytest.approx(5.0)


def test_single_member_random_split_gets_everything():
    p = _problem(1, 2)
    a = ur(p, seed=0)
    assert a.allocations[0] == pytest.approx(CAP)


# -- the exact cut sorter ------------------------------------------------------
#
# The splits as they were with one global two-key lexsort over every
# server's cuts, verbatim but for their names.  Sorting each server's cuts
# in place must reproduce them bit for bit.


def _lexsort_split(
    problem: AAProblem,
    servers: np.ndarray,
    rng: np.random.Generator,
    ctx: "SolveContext | None" = None,
) -> np.ndarray:
    """Random shares: each server's ``C`` is split at uniform random.

    Uses the uniform-spacings construction (sorted U(0,1) gaps), i.e. a
    flat Dirichlet, so every split of the full capacity is equally likely.
    Vectorized over servers: one draw call for all cut points (PCG64
    streams split exactly, so the draws match the historical per-server
    calls bit-for-bit) and one grouped lexsort instead of a Python loop.
    """
    n = problem.n_threads
    m = problem.n_servers
    if n == 0:
        return np.zeros(0)
    counts = np.bincount(servers, minlength=m)
    sizes = np.where(counts >= 2, counts - 1, 0)
    total = int(np.sum(sizes))
    draws = rng.uniform(0.0, 1.0, size=total)
    seg = np.repeat(np.arange(m), sizes)
    # Per-segment stable sort == per-server np.sort of its own draws.
    cuts = draws[np.lexsort((draws, seg))]
    order = np.argsort(servers, kind="stable")
    svr = servers[order]
    pos = np.arange(n) - (np.cumsum(counts) - counts)[svr]
    gaps = _spacings_gaps(cuts, pos, counts[svr], (np.cumsum(sizes) - sizes)[svr])
    alloc = np.empty(n)
    # Singleton servers: gap spans [0, 1] so the product is exactly C.
    alloc[order] = gaps * problem.capacity
    return np.minimum(alloc, problem.utilities.caps)



def _lexsort_split_batch(
    bp: BatchProblem,
    servers: np.ndarray,
    rngs: Sequence[np.random.Generator],
    ctx: "SolveContext | None" = None,
) -> np.ndarray:
    """Uniform-spacings split of every trial's servers in one pass.

    Each trial draws its own cut points (one ``uniform`` call per trial —
    the exact call the scalar :func:`random_split` makes), then all
    trials' segments sort and difference together.
    """
    T, n = bp.n_trials, bp.n_threads
    groups, k_total = _trial_groups(bp, servers)
    counts = np.bincount(groups, minlength=k_total)
    sizes = np.where(counts >= 2, counts - 1, 0)
    group_trial = np.repeat(np.arange(T), bp.n_servers)
    per_trial = np.bincount(group_trial, weights=sizes, minlength=T).astype(np.int64)
    draw_rows = []
    for t, rng in enumerate(rngs):
        if ctx is not None:
            ctx.check_deadline()
        draw_rows.append(as_generator(rng).uniform(0.0, 1.0, size=int(per_trial[t])))
    draws = np.concatenate(draw_rows) if draw_rows else np.zeros(0)
    seg = np.repeat(np.arange(k_total), sizes)
    cuts = draws[np.lexsort((draws, seg))]
    order = np.argsort(groups, kind="stable")  # trial-major, then server
    grp = groups[order]
    pos = np.arange(T * n) - (np.cumsum(counts) - counts)[grp]
    gaps = _spacings_gaps(cuts, pos, counts[grp], (np.cumsum(sizes) - sizes)[grp])
    alloc = np.empty(T * n)
    alloc[order] = gaps * np.repeat(bp.capacity, n)[order]
    alloc = np.minimum(alloc, bp.utilities.caps)
    return alloc.reshape(T, n)



@st.composite
def _split_cases(draw):
    """Trials with their own server counts (up to 300, past any 8-bit
    server id) and assignments that leave servers empty, single or uneven."""
    trials = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    m = draw(st.lists(st.sampled_from([1, 2, 3, 5, 300]), min_size=trials, max_size=trials))
    servers = [
        draw(st.lists(st.integers(0, mt - 1), min_size=n, max_size=n)) for mt in m
    ]
    return np.array(servers, dtype=np.int64).reshape(trials, n), m, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(_split_cases())
def test_random_split_matches_lexsort_splits(case):
    servers, m, seed = case
    trials, n = servers.shape
    bp = BatchProblem(PowerBatch(np.ones(trials * n), 0.5, CAP), trials, m, CAP)
    lanes = TrialStreams([np.random.default_rng([seed, t]) for t in range(trials)])
    got = random_split_batch(bp, servers, lanes)
    want = _lexsort_split_batch(
        bp, servers, [np.random.default_rng([seed, t]) for t in range(trials)]
    )
    assert got.tobytes() == want.tobytes()
    for t in range(trials):
        p = bp.problem(t)
        got = random_split(p, servers[t], np.random.default_rng([seed, t]))
        want = _lexsort_split(p, servers[t], np.random.default_rng([seed, t]))
        assert got.tobytes() == want.tobytes()
