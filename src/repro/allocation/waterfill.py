"""Continuous concave resource allocation by a marginal-price root search.

This is the library's equivalent of Galil's single-server allocator
(reference [16] of the paper): maximize ``sum_i f_i(c_i)`` subject to
``sum_i c_i <= budget`` and ``0 <= c_i <= cap_i`` for concave nondecreasing
``f_i``.  By KKT, an optimal point allocates each thread its demand at a
common marginal price ``lam``:

    c_i(lam) = largest x <= cap_i with f_i'(x) >= lam,

and the total demand ``sum_i c_i(lam)`` is nonincreasing in ``lam``; the
optimal ``lam*`` makes it equal the budget.  We find ``lam*`` with the
batch's vectorized ``inverse_derivative`` in two phases:

1. **geometric bracket** — from a start price (1 unless a caller knows a
   better one), double while the pool is over budget, halve while it is
   under, until ``lam*`` lies in ``[lam, 2 lam]`` or in ``[0, tol]``;
2. **regula falsi** — secant steps inside the bracket, with the
   Anderson–Björck rescaling of the end that stays fixed, so that end
   cannot hold the secant back as in plain regula falsi (Algorithm 2's
   hockey-stick reclaim pools need it), and ``lam*`` is reached in one
   step once both ends lie on one linear piece of a piecewise-linear
   demand (``QuadSplineBatch``, piecewise-linear utilities).  After 100
   secant steps a pool bisects instead, so a demand that jumps at the
   price (a linear utility's step) still closes its bracket.

The search stops when the bracket is narrower than
``rel_tol * max(lam_hi, 1)`` or on an exact hit; at the paper's sizes that
takes 15–17 demand evaluations from a cold start, where bisecting to the
same width took about 40.  The (possibly set-valued) demand at ``lam*`` is
then resolved by linearly interpolating between the bracketing allocations
— threads that move in that bracket all have marginal exactly ``lam*`` (to
tolerance), so any split among them is optimal.  The search is written
twice with the same arithmetic: scalar :func:`water_fill`, and the
lock-step kernel behind every multi-pool entry, whose rows are therefore
bit-identical to it.  A lock-step call takes as many passes as its
slowest pool, so once few pools are still searching the kernel evaluates
only theirs (its working set); every pool's result is unchanged.

The paper's super-optimal allocation (Definition V.1) is this routine with
``budget = m * C``; because every ``f_i`` is nondecreasing the budget is
fully spent whenever ``sum caps >= budget`` (Lemma V.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.observability import (
    BATCH_EVALUATIONS,
    BISECTION_ITERATIONS,
    WATERFILL_CALLS,
)
from repro.utility.batch import UtilityBatch, as_batch


#: Regula falsi steps a pool takes before it bisects.  Anderson-Bjorck
#: crawls when the demand jumps at the root (a linear utility's step next
#: to a smooth one): each three steps shave a few percent off the bracket,
#: and 200 steps left such a pool far from its price.  No pool of the
#: paper's workloads needs more than about 60 secant steps; past 100 a pool
#: halves its bracket instead, so a [lam, 2 lam] bracket closes to 1e-12
#: within 141 steps.
_SECANT_STEPS = 100

#: Threads the lock-step kernel must be able to drop before it shrinks its
#: working set to the pools still searching.  A shrink gathers a sub-batch
#: and its pool ids: about 20 us plus a few ns per thread kept, the price
#: of a demand pass over about a thousand threads (quadspline batches,
#: 2-core host).  On the sweep's fills shrinking saved nothing measurable
#: at 512-1,024 threads and paid from about 2,048 on; churn's 136-thread
#: placement fills stay below the floor.
_SHRINK_FLOOR = 2048


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a single-pool allocation.

    Attributes
    ----------
    allocations:
        Per-thread resource grants, shape ``(n,)``.
    total_utility:
        ``sum_i f_i(allocations[i])``.
    marginal_price:
        The equalized marginal ``lam*``: the clearing end of the final
        bracket (0 when the budget was slack).
    iterations:
        Price-search steps performed: bracket moves plus regula falsi steps.
    """

    allocations: np.ndarray
    total_utility: float
    marginal_price: float
    iterations: int


def water_fill(
    utilities,
    budget: float,
    *,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
    ctx=None,
) -> AllocationResult:
    """Optimally divide ``budget`` among concave utilities (single pool).

    Parameters
    ----------
    utilities:
        A :class:`~repro.utility.batch.UtilityBatch` or sequence of scalar
        :class:`~repro.utility.base.UtilityFunction` objects.
    budget:
        Total divisible resource; must be finite and nonnegative.
    rel_tol:
        Relative width of the final ``lam`` bracket.
    max_iter:
        Cap on regula falsi steps (the bracket walk is not capped); steps
        past the 100th bisect.
    ctx:
        Optional :class:`~repro.engine.context.SolveContext`; records the
        call, its search steps (``BISECTION_ITERATIONS``: bracket moves plus
        regula falsi steps) and batch evaluations, and enforces the
        context's wall-clock deadline inside both loops.

    Notes
    -----
    Exact (to floating point) for utilities with continuous, strictly
    decreasing derivatives; for piecewise-linear utilities the tie at the
    critical marginal is resolved by interpolation, which is still optimal
    because tied threads are exactly indifferent.
    """
    batch = as_batch(utilities)
    n = len(batch)
    budget = float(budget)
    if not np.isfinite(budget) or budget < 0:
        raise ValueError(f"budget must be finite and nonnegative, got {budget!r}")
    if ctx is not None:
        ctx.count(WATERFILL_CALLS)
    if n == 0:
        return AllocationResult(np.zeros(0), 0.0, 0.0, 0)

    caps = batch.caps
    cap_total = float(np.sum(caps))
    if budget >= cap_total:
        # Every thread saturates its own domain; budget is slack.
        c = caps.copy()
        return AllocationResult(c, batch.total(c), 0.0, 0)
    if budget == 0.0:
        c = np.zeros(n)
        return AllocationResult(c, batch.total(c), float(np.max(batch.derivative(c), initial=0.0)), 0)

    def demand(lam: float) -> np.ndarray:
        if ctx is not None:
            ctx.count(BATCH_EVALUATIONS)
        return batch.inverse_derivative(lam)  # at most caps: the family clips

    # Bracket: from lam = 1, double while the pool is over budget or halve
    # while it is under, until the price lies in [lam, 2 lam] or in
    # [0, tol].  Demand at any lam > 0 is finite even when f'(0) = inf
    # (e.g. power utilities).  Both walks honor the deadline: a
    # pathological derivative scale can take hundreds of steps.
    lam_lo, f_lo = 0.0, cap_total - budget  # demand(0) is the cap total
    lam_hi = 1.0
    f_hi = float(np.sum(demand(lam_hi))) - budget
    iterations = 0
    if f_hi > 0.0:
        while f_hi > 0.0:
            if ctx is not None:
                ctx.check_deadline()
            lam_lo, f_lo = lam_hi, f_hi
            lam_hi *= 2.0
            iterations += 1
            if lam_hi > 1e300:
                raise RuntimeError("water_fill could not bracket the marginal price")
            f_hi = float(np.sum(demand(lam_hi))) - budget
    else:
        while f_hi < 0.0 and lam_hi > rel_tol * max(lam_hi, 1.0):
            if ctx is not None:
                ctx.check_deadline()
            lam = 0.5 * lam_hi
            iterations += 1
            f = float(np.sum(demand(lam))) - budget
            if f > 0.0:
                lam_lo, f_lo = lam, f
                break
            lam_hi, f_hi = lam, f

    # Regula falsi inside the bracket (f_lo > 0 >= f_hi).  When the same
    # end moves twice running, the fixed end's value is scaled by the
    # Anderson-Bjorck factor 1 - f_new / f_old (1/2 when that is not
    # positive), so the secant cannot stall against it.  Each point keeps
    # half a tolerance away from both ends: a root that close to an end is
    # then bracketed to tolerance by the next step.  After _SECANT_STEPS
    # steps the point is the bracket's midpoint.
    if f_hi == 0.0:
        lam_lo = lam_hi  # an exact hit closes the bracket
    side = 0
    for step in range(max_iter):
        if ctx is not None:
            ctx.check_deadline()
        tol = rel_tol * max(lam_hi, 1.0)
        width = lam_hi - lam_lo
        if width <= tol:
            break
        lam = lam_lo + width * (f_lo / (f_lo - f_hi))
        lam = max(min(lam, lam_hi - 0.5 * tol), lam_lo + 0.5 * tol)
        if step >= _SECANT_STEPS:
            lam = lam_lo + 0.5 * width
        iterations += 1
        f = float(np.sum(demand(lam))) - budget
        if f > 0.0:
            if side > 0:
                scale = 1.0 - f / f_lo
                f_hi *= scale if scale > 0.0 else 0.5
            lam_lo, f_lo, side = lam, f, 1
        else:
            if side < 0:
                scale = 1.0 - f / f_hi
                f_lo *= scale if scale > 0.0 else 0.5
            lam_hi, f_hi, side = lam, f, -1
            if f == 0.0:
                lam_lo = lam
    if ctx is not None:
        ctx.count(BISECTION_ITERATIONS, iterations)

    c_hi = demand(lam_lo)  # total >= budget
    c_lo = demand(lam_hi)  # total <= budget
    s_hi = float(np.sum(c_hi))
    s_lo = float(np.sum(c_lo))
    if s_hi > s_lo:
        t = (budget - s_lo) / (s_hi - s_lo)
        c = c_lo + t * (c_hi - c_lo)
    else:
        c = c_lo
    # Report the clearing end, not the bracket's midpoint: the search stops
    # on an exact hit too, and a secant search can stop with one end far out.
    return AllocationResult(c, batch.total(c), lam_hi, iterations)


class _Pools:
    """The pools of a lock-step fill: their budgets and the threads they hold.

    ``groups=None`` lays the ``k = len(budgets)`` pools out as equal
    contiguous rows of the batch (pairwise row sums); otherwise thread
    ``i`` is in pool ``groups[i]`` (``np.bincount`` sums, in thread order).
    """

    def __init__(self, batch: UtilityBatch, budgets: np.ndarray, groups: np.ndarray | None):
        self.batch, self.budgets, self.groups = batch, budgets, groups
        self.k = budgets.shape[0]
        if groups is None:
            self.n = len(batch) // self.k
            self.sizes = np.full(self.k, self.n)
        else:
            self.sizes = np.bincount(groups, minlength=self.k)

    def spread(self, x: np.ndarray) -> np.ndarray:
        return np.repeat(x, self.n) if self.groups is None else x[self.groups]

    def sum(self, x: np.ndarray) -> np.ndarray:
        if self.groups is None:
            return np.sum(x.reshape(self.k, self.n), axis=1)
        return np.bincount(self.groups, weights=x, minlength=self.k)

    def demand(self, lam: np.ndarray) -> np.ndarray:
        return self.batch.inverse_derivative_each(self.spread(lam))  # at most caps

    def excess(self, lam: np.ndarray) -> np.ndarray:
        return self.sum(self.demand(lam)) - self.budgets

    def subset(self, keep: np.ndarray) -> "_Pools":
        """The pools where ``keep`` holds, their threads in index order: a
        row keeps its threads contiguous and a group its threads' order, so
        every pool's sums are the same bits as here."""
        mine = self.spread(keep)
        batch = self.batch.subset(np.flatnonzero(mine))
        groups = None if self.groups is None else (np.cumsum(keep) - 1)[self.groups[mine]]
        return _Pools(batch, self.budgets[keep], groups)


def _fill(
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

    Regula falsi runs on a working set.  Once the pools still searching
    are at most a quarter of the pools it evaluates, and the others hold
    more than ``_SHRINK_FLOOR`` threads, the kernel gathers the searching
    pools' threads, budgets and search state, and evaluates only those
    until it shrinks again or the search ends.  A pool's arithmetic and
    sums are the same in any working set, so its result is too.

    Returns ``(alloc, lam, slack, d, b)``: grants, clearing prices (0 for
    pools not searched), the slack mask, and per-pool bracket and
    regula-falsi step counts; a searched pool costs ``d + b + 3`` demand
    evaluations.
    """
    k = budgets.shape[0]
    caps = batch.caps
    pools = _Pools(batch, budgets, groups)
    cap_totals = pools.sum(caps)
    slack = budgets >= cap_totals
    active = ~slack & (budgets > 0.0)
    d, b = np.zeros((2, k), dtype=np.int64)
    if not np.any(active):
        return np.where(pools.spread(slack), caps, 0.0), np.zeros(k), slack, d, b

    # Bracket, as water_fill: double each pool's price while it is over
    # budget, halve it while under and [0, lam] is still wide.  The walks
    # can take hundreds of passes, so they poll the deadline.
    lam_lo, f_lo = np.zeros(k), cap_totals - budgets  # demand(0) is the cap total
    if start is None:
        lam_hi = np.ones(k)
    else:
        lam_hi = np.where(np.isfinite(start) & (start > 0.0), start, 1.0)
    f_hi = pools.excess(lam_hi)
    up = active & (f_hi > 0.0)
    walk = up | (active & (f_hi < 0.0) & (lam_hi > rel_tol * np.maximum(lam_hi, 1.0)))
    while walk.any():
        if ctx is not None:
            ctx.check_deadline()
        lam = np.where(up, lam_hi * 2.0, 0.5 * lam_hi)
        d += walk
        if lam.max(where=walk, initial=0.0) > 1e300:
            raise RuntimeError("water-fill could not bracket a marginal price")
        f = pools.excess(lam)
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
    # must stay put; the other pools' excess values are never read again,
    # and a pool that has stopped never searches again, so the working set
    # ``work`` can drop it.  ``ids`` maps the working set to its pools (None
    # while it is all of them); lam_lo, lam_hi and b take its brackets and
    # step counts back whenever it shrinks.
    lam_lo = np.where(active & (f_hi != 0.0), lam_lo, lam_hi)  # closed: no search
    work, ids, lo, hi, bw = pools, None, lam_lo, lam_hi, b
    last = np.full(k, -1)  # the end each pool moved last (True: lo); -1: none yet
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(max_iter):
            if ctx is not None:
                ctx.check_deadline()
            tol = rel_tol * np.maximum(hi, 1.0)
            width = hi - lo
            todo = width > tol
            live = np.count_nonzero(todo)
            if not live:
                break
            if 4 * live <= work.k and np.sum(work.sizes, where=~todo) > _SHRINK_FLOOR:
                if ids is not None:
                    lam_lo[ids], lam_hi[ids], b[ids] = lo, hi, bw
                ids = np.flatnonzero(todo) if ids is None else ids[todo]
                work = work.subset(todo)
                lo, hi, bw, f_lo, f_hi, last, tol, width = (
                    x[todo] for x in (lo, hi, bw, f_lo, f_hi, last, tol, width)
                )
                todo = todo[todo]
            tol *= 0.5
            lam = f_lo - f_hi
            np.divide(f_lo, lam, out=lam)
            lam *= width
            lam += lo
            np.fmin(lam, hi - tol, out=lam)
            np.fmax(lam, lo + tol, out=lam)
            if step >= _SECANT_STEPS:  # no pool has taken more steps than passes
                np.copyto(lam, lo + 0.5 * width, where=bw >= _SECANT_STEPS)
            bw += todo
            f = work.excess(lam)
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
            np.copyto(lo, lam, where=todo & (f >= 0.0))
            np.copyto(hi, lam, where=todo & (f <= 0.0))
    if ids is not None:
        lam_lo[ids], lam_hi[ids], b[ids] = lo, hi, bw

    # Interpolate between the bracketing allocations, as water_fill does.
    c_hi = pools.demand(lam_lo)  # pool total >= budget
    c_lo = pools.demand(lam_hi)  # pool total <= budget
    s_hi, s_lo = pools.sum(c_hi), pools.sum(c_lo)
    moves = s_hi > s_lo
    t = np.where(moves, (budgets - s_lo) / np.where(moves, s_hi - s_lo, 1.0), 0.0)
    # c_lo + t * (c_hi - c_lo) in place, bit for bit; extra thread-sized
    # arrays (temporaries here, or inactive pools' grants held through the
    # loops) measurably slowed the sweep's fills.
    c_hi -= c_lo
    c_hi *= pools.spread(t)
    c_hi += c_lo
    alloc = np.where(pools.spread(active), c_hi, np.where(pools.spread(slack), caps, 0.0))
    return alloc, np.where(active, lam_hi, 0.0), slack, d, b


@dataclass(frozen=True)
class BatchAllocationResult:
    """Outcome of :func:`water_fill_batch` — one pool allocation per trial.

    Attributes
    ----------
    allocations:
        Per-trial, per-thread grants, shape ``(trials, n)``.
    total_utility:
        Row sums ``sum_i f_ti(allocations[t, i])``, shape ``(trials,)``.
    marginal_price:
        Per-trial equalized marginal ``lam*`` (0 for slack budgets).
    iterations:
        Per-trial price-search steps (bracket moves plus regula falsi
        steps), shape ``(trials,)``.
    """

    allocations: np.ndarray
    total_utility: np.ndarray
    marginal_price: np.ndarray
    iterations: np.ndarray


def water_fill_batch(
    utilities,
    n_trials: int,
    budgets,
    *,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
    ctx=None,
) -> BatchAllocationResult:
    """Run ``n_trials`` independent single-pool water-fills in lock-step.

    ``utilities`` is one flat trial-major batch of ``n_trials * n`` threads
    (trial ``t`` owns threads ``t*n … (t+1)*n - 1``); ``budgets`` gives each
    trial's pool.  The trials are the row layout of the lock-step kernel, so
    this *is* :func:`water_fill` called per trial, bit for bit, which the
    equivalence suite asserts.  Counters on ``ctx`` are per-trial-equivalent
    totals, so sweeps report identical counts whether points run batched or
    scalar, in one process or many.
    """
    batch = as_batch(utilities)
    n_trials = int(n_trials)
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    n_total = len(batch)
    if n_total % n_trials:
        raise ValueError(
            f"batch of {n_total} threads does not split into {n_trials} equal trials"
        )
    n = n_total // n_trials
    budgets = np.asarray(budgets, dtype=float)
    if budgets.shape != (n_trials,):
        raise ValueError(f"budgets must have shape ({n_trials},)")
    if np.any(budgets < 0) or not np.all(np.isfinite(budgets)):
        raise ValueError("budgets must be finite and nonnegative")
    if ctx is not None:
        ctx.count(WATERFILL_CALLS, n_trials)
    alloc, lam, slack, d, b = _fill(batch, budgets, None, rel_tol, max_iter, ctx)
    zero = (budgets == 0.0) & ~slack
    if np.any(zero):
        # Scalar convention for empty budgets: price = max derivative at 0.
        deriv0 = batch.derivative(np.zeros(n_total)).reshape(n_trials, n)
        lam = np.where(zero, np.max(deriv0, axis=1, initial=0.0), lam)
    iterations = d + b
    if ctx is not None:
        ctx.count(BATCH_EVALUATIONS, int(np.sum(iterations[~slack & ~zero] + 3)))
        ctx.count(BISECTION_ITERATIONS, int(np.sum(iterations)))
    totals = np.sum(batch.value(alloc).reshape(n_trials, n), axis=1)
    return BatchAllocationResult(
        allocations=alloc.reshape(n_trials, n),
        total_utility=totals,
        marginal_price=lam,
        iterations=iterations,
    )


def budget_profile(utilities, budgets) -> np.ndarray:
    """Optimal total utility as a function of the pool budget.

    ``out[k] = water_fill(utilities, budgets[k]).total_utility``.  The
    profile is nondecreasing and concave in the budget (pointwise max of
    concave programs) — a property the test suite asserts and analysts use
    to price marginal capacity.
    """
    budgets = np.asarray(budgets, dtype=float)
    batch = as_batch(utilities)
    return np.array([water_fill(batch, float(b)).total_utility for b in budgets])


def kkt_violation(utilities, allocations, budget: float) -> float:
    """Diagnostic: how far an allocation is from the water-filling KKT point.

    Returns the largest rate at which a feasible move of size ``eps``
    gains utility: the max over pairs of ``recv_rate_j - give_rate_i``
    where ``c_i > 0`` and ``c_j < cap_j``, or any receiver's rate when
    budget is left unspent.  Rates are *secant* rates over the probe step
    (``(f(c+eps) - f(c)) / eps`` for a receiver, ``(f(c) - f(c-eps)) / eps``
    for a donor) rather than pointwise derivatives: for concave ``f`` they
    bracket the one-sided derivatives at kinks, and they stay finite for
    utilities with ``f'(0) = inf`` (e.g. power utilities near ``beta = 1``,
    whose optimal share underflows to exactly 0 — an allocation whose every
    feasible improvement is below float precision certifies as ~0, not
    ``inf``).  Zero (to tolerance) at an optimum; used by tests as an
    optimality certificate.
    """
    batch = as_batch(utilities)
    c = np.asarray(allocations, dtype=float)
    caps = batch.caps
    eps = 1e-7 * max(float(np.max(caps, initial=0.0)), 1.0)
    vals = batch.value(c)
    c_up = np.minimum(c + eps, caps)
    c_dn = np.maximum(c - eps, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        d_right = np.where(c_up > c, (batch.value(c_up) - vals) / (c_up - c), -np.inf)
        d_left = np.where(c > c_dn, (vals - batch.value(c_dn)) / (c - c_dn), np.inf)
    slack_budget = budget - float(np.sum(c))
    gain = 0.0
    receivers = d_right[c < caps - 1e-9]
    donors = d_left[c > eps]
    if receivers.size and slack_budget > 1e-9 * max(budget, 1.0):
        gain = max(gain, float(np.max(receivers)))
    if receivers.size and donors.size:
        gain = max(gain, float(np.max(receivers)) - float(np.min(donors)))
    return gain
