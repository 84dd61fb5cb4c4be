"""Water-filling: KKT optimality, budget handling, degenerate cases."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.allocation import waterfill
from repro.allocation.grouped import water_fill_grouped
from repro.allocation.waterfill import (
    _SECANT_STEPS,
    _SHRINK_FLOOR,
    _fill,
    kkt_violation,
    water_fill,
    water_fill_batch,
)
from repro.engine import SolveContext, SolveTimeout
from repro.utility.batch import (
    GenericBatch,
    PowerBatch,
    QuadSplineBatch,
    SharedGridPWLBatch,
    UtilityBatch,
    as_batch,
)
from repro.utility.functions import (
    CappedLinearUtility,
    LinearUtility,
    LogUtility,
    PowerUtility,
    ZeroUtility,
)

from tests.conftest import assert_allocation_optimal, utility_lists

CAP = 10.0


def test_two_identical_logs_split_evenly():
    fns = [LogUtility(1.0, 1.0, CAP), LogUtility(1.0, 1.0, CAP)]
    res = water_fill(fns, 6.0)
    assert res.allocations == pytest.approx([3.0, 3.0])


def test_budget_fully_spent_when_binding():
    fns = [LogUtility(c, 1.0, CAP) for c in (1.0, 2.0, 3.0)]
    res = water_fill(fns, 8.0)
    assert float(np.sum(res.allocations)) == pytest.approx(8.0)


def test_marginals_equalized_at_interior_optimum():
    fns = [LogUtility(1.0, 1.0, CAP), LogUtility(4.0, 1.0, CAP)]
    res = water_fill(fns, 5.0)
    batch = GenericBatch(fns)
    d = batch.derivative(res.allocations)
    assert d[0] == pytest.approx(d[1], rel=1e-6)


def test_known_closed_form_two_logs():
    # f1 = log(1+x), f2 = 4 log(1+x); equal marginals: 1/(1+c1) = 4/(1+c2)
    fns = [LogUtility(1.0, 1.0, 100.0), LogUtility(4.0, 1.0, 100.0)]
    res = water_fill(fns, 8.0)
    # c1 + c2 = 8 and 1 + c2 = 4 (1 + c1)  =>  c1 = 1, c2 = 7
    assert res.allocations == pytest.approx([1.0, 7.0], abs=1e-6)


def test_slack_budget_saturates_caps():
    fns = [LogUtility(1.0, 1.0, 2.0), LogUtility(1.0, 1.0, 3.0)]
    res = water_fill(fns, 100.0)
    assert res.allocations == pytest.approx([2.0, 3.0])
    assert res.marginal_price == 0.0


def test_zero_budget():
    res = water_fill([LogUtility(1.0, 1.0, CAP)], 0.0)
    assert res.allocations == pytest.approx([0.0])
    assert res.total_utility == pytest.approx(0.0)


def test_empty_batch():
    res = water_fill([], 5.0)
    assert res.allocations.shape == (0,)
    assert res.total_utility == 0.0


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        water_fill([LinearUtility(1.0, CAP)], -1.0)


def test_infinite_budget_rejected():
    with pytest.raises(ValueError):
        water_fill([LinearUtility(1.0, CAP)], np.inf)


def test_linear_utilities_prefer_steepest():
    fns = [LinearUtility(1.0, CAP), LinearUtility(3.0, CAP)]
    res = water_fill(fns, CAP)
    # All budget to the slope-3 thread.
    assert res.allocations[1] == pytest.approx(CAP)
    assert res.allocations[0] == pytest.approx(0.0)


def test_capped_linear_tie_splits_arbitrarily_but_optimally():
    fns = [CappedLinearUtility(2.0, 4.0, CAP), CappedLinearUtility(2.0, 4.0, CAP)]
    res = water_fill(fns, 6.0)
    assert float(np.sum(res.allocations)) == pytest.approx(6.0)
    # Equal slopes below breakpoints: any split with both <= 4 is optimal.
    assert np.all(res.allocations <= 4.0 + 1e-9)
    assert res.total_utility == pytest.approx(12.0)


def test_power_utilities_infinite_derivative_at_zero():
    fns = [PowerUtility(1.0, 0.5, CAP), PowerUtility(1.0, 0.5, CAP)]
    res = water_fill(fns, 4.0)
    assert res.allocations == pytest.approx([2.0, 2.0], rel=1e-6)


def test_equal_power_threads_split_evenly_many():
    batch = PowerBatch(np.full(5, 2.0), np.full(5, 0.6), CAP)
    res = water_fill(batch, 10.0)
    assert res.allocations == pytest.approx(np.full(5, 2.0), rel=1e-6)


def test_zero_utility_thread_gets_leftovers_only():
    fns = [ZeroUtility(CAP), LogUtility(5.0, 1.0, CAP)]
    res = water_fill(fns, 5.0)
    assert res.allocations[1] == pytest.approx(5.0)


def test_result_reports_iterations_and_price():
    fns = [LogUtility(1.0, 1.0, CAP), LogUtility(2.0, 1.0, CAP)]
    res = water_fill(fns, 5.0)
    assert res.iterations > 0
    assert res.marginal_price > 0


def _random_pools(family, rng, trials, n):
    """``trials`` pools of ``n`` random threads of one family, trial-major."""
    size = trials * n
    if family == "quadspline":
        v = rng.uniform(0.5, 3.0, size)
        return QuadSplineBatch(v, v * rng.uniform(0.0, 1.0, size), CAP)
    if family == "power":
        return PowerBatch(rng.uniform(0.5, 3.0, size), rng.uniform(0.2, 0.9, size), CAP)
    # Concave piecewise-linear rows on one knot grid: decreasing slopes.
    xs = np.linspace(0.0, CAP, 6)
    slopes = -np.sort(-rng.uniform(0.01, 2.0, (size, 5)), axis=1)
    ys = np.concatenate([np.zeros((size, 1)), np.cumsum(slopes * 2.0, axis=1)], axis=1)
    return SharedGridPWLBatch(xs, ys)


def _assert_interior_marginals_equal(batch, alloc, price):
    """Every thread strictly inside its domain (and, for piecewise-linear
    utilities, strictly between knots) has marginal ``price``."""
    inside = (alloc > 1e-9) & (alloc < batch.caps - 1e-9)
    if isinstance(batch, SharedGridPWLBatch):
        gap = np.min(np.abs(alloc[:, None] - batch.xs[None, :]), axis=1)
        inside &= gap > 1e-9
    assert price > 1e-4  # large enough for a relative check at rel_tol 1e-12
    marginals = batch.derivative(alloc)[inside]
    np.testing.assert_allclose(marginals, price, rtol=1e-6)
    return int(np.count_nonzero(inside))


@pytest.mark.parametrize("family", ["quadspline", "power", "pwl"])
def test_reported_price_is_the_interior_marginal(family):
    """``marginal_price`` is the price the interior threads actually pay,
    from scalar ``water_fill`` and from every row of ``water_fill_batch``.
    A secant search can stop with one bracket end far from the root, so
    the bracket's midpoint is not a valid report."""
    rng = np.random.default_rng(11)
    trials, n = 12, 40
    batch = _random_pools(family, rng, trials, n)
    budgets = rng.uniform(0.2, 0.8, trials) * n * CAP
    rows = water_fill_batch(batch, trials, budgets)
    interior = 0
    for t in range(trials):
        pool = batch.subset(np.arange(t * n, (t + 1) * n))
        res = water_fill(pool, budgets[t])
        interior += _assert_interior_marginals_equal(pool, res.allocations, res.marginal_price)
        assert rows.marginal_price[t] == res.marginal_price
    assert interior >= trials  # at least one interior thread per pool


@settings(max_examples=60, deadline=None)
@given(utility_lists(1, 6), st.floats(min_value=0.0, max_value=60.0))
def test_waterfill_satisfies_kkt_property(fns, budget):
    batch = GenericBatch(fns)
    res = water_fill(batch, budget)
    assert np.all(res.allocations >= -1e-12)
    assert np.all(res.allocations <= batch.caps + 1e-9)
    assert float(np.sum(res.allocations)) <= budget + 1e-6 * max(budget, 1.0)
    assert_allocation_optimal(batch, res.allocations, budget, tol=1e-5)


def test_price_at_a_demand_jump_converges():
    # The linear thread's demand jumps from its cap to 0 at its slope, and
    # the clearing price sits on that jump.  Regula falsi alone crawls there
    # and ran out of steps far from the price, short-changing the power
    # thread; the bisection fallback closes the bracket.
    fns = [LinearUtility(17.0, 10.0), PowerUtility(1.0, 0.25, 10.0)]
    budget = 0.25
    res = water_fill(GenericBatch(fns), budget)
    assert res.marginal_price == pytest.approx(17.0, rel=1e-9)
    assert_allocation_optimal(GenericBatch(fns), res.allocations, budget, tol=1e-9)
    rows = water_fill_batch(GenericBatch(fns * 2), 2, [budget, budget])
    assert rows.allocations[1].tobytes() == res.allocations.tobytes()
    assert rows.iterations.tolist() == [res.iterations] * 2


@settings(max_examples=40, deadline=None)
@given(utility_lists(2, 6), st.floats(min_value=1.0, max_value=40.0))
def test_value_of_budget_is_monotone(fns, budget):
    """More budget never hurts (utilities are nondecreasing)."""
    lo = water_fill(fns, budget * 0.5).total_utility
    hi = water_fill(fns, budget).total_utility
    assert hi >= lo - 1e-8 * (1 + abs(hi))


@settings(max_examples=40, deadline=None)
@given(utility_lists(2, 6), st.floats(min_value=1.0, max_value=40.0))
def test_permutation_invariance(fns, budget):
    """Total utility does not depend on thread order."""
    a = water_fill(fns, budget).total_utility
    b = water_fill(list(reversed(fns)), budget).total_utility
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_quadspline_batch_waterfill_exact_vs_generic():
    rng = np.random.default_rng(3)
    v = rng.uniform(0.5, 3.0, 8)
    w = v * rng.uniform(0, 1, 8)
    batch = QuadSplineBatch(v, w, CAP)
    generic = GenericBatch(batch.functions())
    a = water_fill(batch, 30.0)
    b = water_fill(generic, 30.0)
    assert a.total_utility == pytest.approx(b.total_utility, rel=1e-9)
    assert a.allocations == pytest.approx(b.allocations, abs=1e-6)


def test_kkt_violation_flags_bad_allocation():
    fns = [LogUtility(1.0, 1.0, CAP), LogUtility(4.0, 1.0, CAP)]
    bad = np.array([5.0, 0.0])  # everything to the weak thread
    assert kkt_violation(fns, bad, 5.0) > 0.1


def test_kkt_violation_zero_at_optimum():
    fns = [LogUtility(1.0, 1.0, CAP), LogUtility(4.0, 1.0, CAP)]
    res = water_fill(fns, 5.0)
    assert kkt_violation(fns, res.allocations, 5.0) < 1e-6


def test_bracket_loop_honors_deadline():
    """A pathological derivative scale (~100 doublings up to a price near
    1e30, or ~40 halvings down towards one near 1e-30) must hit the
    deadline *inside* the bracket walk, before regula falsi ever starts —
    measured by the batch-evaluation counter staying tiny."""
    from repro.engine import SolveContext, SolveTimeout
    from repro.observability import BATCH_EVALUATIONS

    for coeff in (1e30, 1e-30):
        fns = [LogUtility(coeff, 1.0, CAP), LogUtility(coeff, 1.0, CAP)]
        ctx = SolveContext(budget_s=1e-9)
        with pytest.raises(SolveTimeout):
            water_fill(fns, 5.0, ctx=ctx)
        # Without the bracket-walk check, dozens of demand evaluations would
        # have run before the regula falsi loop's own deadline check fired.
        assert ctx.counters[BATCH_EVALUATIONS] <= 2, coeff


@pytest.mark.parametrize("entry", ["water_fill_grouped", "water_fill_batch", "reclaim_batch"])
def test_lock_step_bracket_loop_honors_deadline(entry, monkeypatch):
    """The batched entries share one lock-step kernel whose bracket walk
    polls the deadline too, upwards (a price near 1e30) and downwards (near
    1e-30).  The batch entries record ``BATCH_EVALUATIONS`` only after the
    loops, so a spy on the demand oracle counts instead."""
    from repro.core.batch import BatchAssignment, BatchProblem, reclaim_batch
    from repro.engine import SolveContext, SolveTimeout

    for coeff in (1e30, 1e-30):
        batch = as_batch([LogUtility(coeff, 1.0, CAP), LogUtility(coeff, 1.0, CAP)])
        oracle = batch.inverse_derivative_each
        evaluations = []

        def spy(lam):
            evaluations.append(lam)
            return oracle(lam)

        monkeypatch.setattr(batch, "inverse_derivative_each", spy)
        ctx = SolveContext(budget_s=1e-9)
        with pytest.raises(SolveTimeout):
            if entry == "water_fill_grouped":
                water_fill_grouped(batch, [0, 0], [5.0], ctx=ctx)
            elif entry == "water_fill_batch":
                water_fill_batch(batch, 1, [5.0], ctx=ctx)
            else:  # both threads on one server of capacity CAP < 2 * CAP
                servers = np.zeros((1, 2), dtype=np.int64)
                reclaim_batch(
                    BatchProblem(batch, 1, 1, CAP),
                    BatchAssignment(servers, np.zeros((1, 2))),
                    ctx=ctx,
                )
        assert len(evaluations) <= 2, coeff


def test_price_doubling_bracket_lives_only_in_waterfill():
    """One water-fill loop: the continuous price-doubling bracket appears
    only in ``allocation/waterfill.py``, once for scalar ``water_fill`` and
    once for the lock-step kernel behind every batched entry.  The discrete
    allocator ``allocation/galil.py`` is the one exception."""
    root = Path(repro.__file__).parent
    doubling = re.compile(r"\b\w*hi\s*\*=?\s*2\.0")
    found = {
        path.relative_to(root).as_posix(): len(doubling.findall(path.read_text()))
        for path in sorted(root.rglob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {
        "allocation/galil.py": 1,
        "allocation/waterfill.py": 2,
    }


# -- the lock-step kernel's working set ---------------------------------------
#
# The kernel as it was before regula falsi shrank to the pools still
# searching, verbatim but for its name: every pass evaluates every pool.
# The working set must reproduce it bit for bit.

def _full_pass_fill(
    batch: UtilityBatch, budgets: np.ndarray, groups: np.ndarray | None,
    rel_tol: float, max_iter: int, ctx, *, start: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Water-fill ``k = len(budgets)`` pools in lock-step: the one bracket,
    regula falsi and interpolation behind every multi-pool entry point.

    ``groups=None`` lays the pools out as ``k`` equal contiguous rows
    (pairwise row sums, so each row is bit-identical to :func:`water_fill`);
    otherwise thread ``i`` is in pool ``groups[i]`` (``np.bincount`` sums).
    Each pool's search takes exactly the steps :func:`water_fill`'s would,
    from ``start[p]`` instead of 1 when given (a start that is not a
    positive finite price falls back to 1).  The start only seeds the
    bracket, which is verified by evaluation, so a poor one costs passes,
    never accuracy.  Slack pools saturate, empty budgets get nothing;
    neither is searched.

    Returns ``(alloc, lam, slack, d, b)``: grants, clearing prices (0 for
    pools not searched), the slack mask, and per-pool bracket and
    regula-falsi step counts; a searched pool costs ``d + b + 3`` demand
    evaluations.
    """
    k = budgets.shape[0]
    caps = batch.caps
    if groups is None:
        n = len(batch) // k
        def spread(x: np.ndarray) -> np.ndarray:
            return np.repeat(x, n)
        def pool_sum(x: np.ndarray) -> np.ndarray:
            return np.sum(x.reshape(k, n), axis=1)
    else:
        pool_of = groups
        def spread(x: np.ndarray) -> np.ndarray:
            return x[pool_of]
        def pool_sum(x: np.ndarray) -> np.ndarray:
            return np.bincount(pool_of, weights=x, minlength=k)

    def demand(lam: np.ndarray) -> np.ndarray:
        return batch.inverse_derivative_each(spread(lam))  # at most caps

    def excess(lam: np.ndarray) -> np.ndarray:
        return pool_sum(demand(lam)) - budgets

    cap_totals = pool_sum(caps)
    slack = budgets >= cap_totals
    active = ~slack & (budgets > 0.0)
    d, b = np.zeros((2, k), dtype=np.int64)
    if not np.any(active):
        return np.where(spread(slack), caps, 0.0), np.zeros(k), slack, d, b

    # Bracket, as water_fill: double each pool's price while it is over
    # budget, halve it while under and [0, lam] is still wide.  The walks
    # can take hundreds of passes, so they poll the deadline.
    lam_lo, f_lo = np.zeros(k), cap_totals - budgets  # demand(0) is the cap total
    if start is None:
        lam_hi = np.ones(k)
    else:
        lam_hi = np.where(np.isfinite(start) & (start > 0.0), start, 1.0)
    f_hi = excess(lam_hi)
    up = active & (f_hi > 0.0)
    walk = up | (active & (f_hi < 0.0) & (lam_hi > rel_tol * np.maximum(lam_hi, 1.0)))
    while walk.any():
        if ctx is not None:
            ctx.check_deadline()
        lam = np.where(up, lam_hi * 2.0, 0.5 * lam_hi)
        d += walk
        if lam.max(where=walk, initial=0.0) > 1e300:
            raise RuntimeError("water-fill could not bracket a marginal price")
        f = excess(lam)
        over = f > 0.0
        rise = walk & up  # lo takes the old hi, hi the doubled price
        cross = walk & ~up & over  # a halving walk found the over side
        np.copyto(lam_lo, lam_hi, where=rise)
        np.copyto(lam_lo, lam, where=cross)
        np.copyto(f_lo, f_hi, where=rise)
        np.copyto(f_lo, f, where=cross)
        walk &= ~cross
        np.copyto(lam_hi, lam, where=walk)
        np.copyto(f_hi, f, where=walk)
        walk &= np.where(up, over, (f < 0.0) & (lam > rel_tol * np.maximum(lam, 1.0)))

    # Regula falsi with the Anderson-Bjorck rescaling, as water_fill, on
    # arrays owned here (updated in place: every pass is mostly fixed numpy
    # overhead at churn's size).  Only the ends of pools still searching
    # must stay put; the other pools' excess values are never read again.
    lam_lo = np.where(active & (f_hi != 0.0), lam_lo, lam_hi)  # closed: no search
    last = np.full(k, -1)  # the end each pool moved last (True: lo); -1: none yet
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(max_iter):
            if ctx is not None:
                ctx.check_deadline()
            tol = rel_tol * np.maximum(lam_hi, 1.0)
            width = lam_hi - lam_lo
            todo = width > tol
            if not todo.any():
                break
            tol *= 0.5
            lam = f_lo - f_hi
            np.divide(f_lo, lam, out=lam)
            lam *= width
            lam += lam_lo
            np.fmin(lam, lam_hi - tol, out=lam)
            np.fmax(lam, lam_lo + tol, out=lam)
            if step >= _SECANT_STEPS:  # no pool has taken more steps than passes
                np.copyto(lam, lam_lo + 0.5 * width, where=b >= _SECANT_STEPS)
            b += todo
            f = excess(lam)
            over = f > 0.0
            scale = np.where(over, f_lo, f_hi)
            np.divide(f, scale, out=scale)
            np.subtract(1.0, scale, out=scale)
            scale[scale <= 0.0] = 0.5
            scale[over != last] = 1.0
            last = over
            f_lo *= scale
            f_hi *= scale
            np.copyto(f_lo, f, where=over)
            np.copyto(f_hi, f, where=~over)
            np.copyto(lam_lo, lam, where=todo & (f >= 0.0))
            np.copyto(lam_hi, lam, where=todo & (f <= 0.0))

    # Interpolate between the bracketing allocations, as water_fill does.
    c_hi = demand(lam_lo)  # pool total >= budget
    c_lo = demand(lam_hi)  # pool total <= budget
    s_hi, s_lo = pool_sum(c_hi), pool_sum(c_lo)
    moves = s_hi > s_lo
    t = np.where(moves, (budgets - s_lo) / np.where(moves, s_hi - s_lo, 1.0), 0.0)
    # c_lo + t * (c_hi - c_lo) in place, bit for bit; extra thread-sized
    # arrays (temporaries here, or inactive pools' grants held through the
    # loops) measurably slowed the sweep's fills.
    c_hi -= c_lo
    c_hi *= spread(t)
    c_hi += c_lo
    alloc = np.where(spread(active), c_hi, np.where(spread(slack), caps, 0.0))
    return alloc, np.where(active, lam_hi, 0.0), slack, d, b


def _mixed_pools(n_easy, family, seed=0):
    """``n_easy`` two-thread pools, a few slack pools (budget above the cap
    total) and empty budgets among them, and for the power family one pool
    whose price sits on a linear thread's demand jump, the pool of
    :func:`test_price_at_a_demand_jump_converges`, which bisects past
    ``_SECANT_STEPS``.  Returns the batch in row layout and the budgets."""
    rng = np.random.default_rng(seed)
    budgets = rng.uniform(0.5, 15.0, n_easy)
    budgets[rng.choice(n_easy, n_easy // 10, replace=False)] = 2 * CAP + 1.0
    budgets[rng.choice(n_easy, n_easy // 10, replace=False)] = 0.0
    if family == "quadspline":
        v = rng.uniform(0.5, 3.0, 2 * n_easy)
        return QuadSplineBatch(v, v * rng.uniform(0.0, 1.0, 2 * n_easy), CAP), budgets
    coeff = rng.uniform(0.5, 3.0, (n_easy, 2))
    beta = rng.uniform(0.2, 0.9, (n_easy, 2))
    jump = rng.integers(n_easy)
    coeff[jump], beta[jump], budgets[jump] = (17.0, 1.0), (1.0, 0.25), 0.25
    return PowerBatch(coeff.ravel(), beta.ravel(), CAP), budgets


@pytest.mark.parametrize("family", ["power", "quadspline"])
@pytest.mark.parametrize("layout", ["rows", "groups"])
@pytest.mark.parametrize("size", ["above_floor", "below_floor"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "start"])
def test_working_set_matches_full_passes(family, layout, size, warm, monkeypatch):
    """Shrinking to the pools still searching changes no bit of the grants,
    prices, slack mask or step counts, in either layout: a row keeps its
    threads contiguous and a group keeps their order, so every pool sums
    the same values in the same order.  Below the size floor the kernel
    never shrinks; above it, it shrinks more than once."""
    n_easy = 8 * _SHRINK_FLOOR if size == "above_floor" else 100
    batch, budgets = _mixed_pools(n_easy, family)
    k = budgets.shape[0]
    groups = None
    if layout == "groups":  # interleave the pools' threads
        perm = np.random.default_rng(1).permutation(2 * k)
        batch, groups = batch.subset(perm), np.repeat(np.arange(k), 2)[perm]
    start = None
    if warm:
        start = np.random.default_rng(2).uniform(1e-3, 3.0, k)
        start[:3] = (0.0, np.inf, np.nan)  # fall back to 1
    shrinks = []
    subset = waterfill._Pools.subset

    def counted(self, keep):
        shrinks.append(keep.size)
        return subset(self, keep)

    monkeypatch.setattr(waterfill._Pools, "subset", counted)
    got = _fill(batch, budgets, groups, 1e-12, 200, None, start=start)
    want = _full_pass_fill(batch, budgets, groups, 1e-12, 200, None, start=start)
    for name, a, b in zip(("alloc", "lam", "slack", "d", "b"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if family == "power":
        assert want[4].max() > _SECANT_STEPS  # the jump pool bisected
    assert len(shrinks) >= 2 if size == "above_floor" else not shrinks


@pytest.mark.parametrize("entry", ["water_fill_batch", "water_fill_grouped"])
def test_working_set_loop_honors_deadline(entry, monkeypatch):
    """A deadline that expires once the kernel has shrunk still raises from
    inside the loop, in the row layout and the group layout."""
    batch, budgets = _mixed_pools(2 * _SHRINK_FLOOR, "power")
    k = budgets.shape[0]
    ctx = SolveContext(budget_s=60.0)
    subset = waterfill._Pools.subset

    def expire(self, keep):
        ctx.deadline = 0.0  # long past
        return subset(self, keep)

    monkeypatch.setattr(waterfill._Pools, "subset", expire)
    with pytest.raises(SolveTimeout):
        if entry == "water_fill_batch":
            water_fill_batch(batch, k, budgets, ctx=ctx)
        else:
            water_fill_grouped(batch, np.repeat(np.arange(k), 2), budgets, ctx=ctx)
    assert ctx.deadline == 0.0
