"""Continuous concave resource allocation by marginal-price bisection.

This is the library's equivalent of Galil's single-server allocator
(reference [16] of the paper): maximize ``sum_i f_i(c_i)`` subject to
``sum_i c_i <= budget`` and ``0 <= c_i <= cap_i`` for concave nondecreasing
``f_i``.  By KKT, an optimal point allocates each thread its demand at a
common marginal price ``lam``:

    c_i(lam) = largest x <= cap_i with f_i'(x) >= lam,

and the total demand ``sum_i c_i(lam)`` is nonincreasing in ``lam``; the
optimal ``lam*`` makes it equal the budget.  We bisect on ``lam`` using the
batch's vectorized ``inverse_derivative``, then resolve the (possibly
set-valued) demand at ``lam*`` by linearly interpolating between the
bracketing allocations — threads that move in that bracket all have marginal
exactly ``lam*`` (to tolerance), so any split among them is optimal.

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
        The equalized marginal ``lam*`` (0 when the budget was slack).
    iterations:
        Bisection steps performed.
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
        Bisection iteration cap (the bracket halves each step).
    ctx:
        Optional :class:`~repro.engine.context.SolveContext`; records the
        call, its bisection iterations and batch evaluations, and enforces
        the context's wall-clock deadline inside the bisection loop.

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
        return np.minimum(batch.inverse_derivative(lam), caps)

    # Exponential search for an upper price with demand <= budget.  Demand at
    # any lam > 0 is finite even when f'(0) = inf (e.g. power utilities).
    # The bracket loop honors the deadline too: a pathological derivative
    # scale can take hundreds of doublings before bisection ever starts.
    lam_lo = 0.0  # demand(lam_lo) = sum(caps) > budget
    lam_hi = 1.0
    iterations = 0
    while float(np.sum(demand(lam_hi))) > budget:
        if ctx is not None:
            ctx.check_deadline()
        lam_lo = lam_hi
        lam_hi *= 2.0
        iterations += 1
        if lam_hi > 1e300:
            raise RuntimeError("water_fill could not bracket the marginal price")

    for _ in range(max_iter):
        if ctx is not None:
            ctx.check_deadline()
        if lam_hi - lam_lo <= rel_tol * max(lam_hi, 1.0):
            break
        mid = 0.5 * (lam_lo + lam_hi)
        iterations += 1
        if float(np.sum(demand(mid))) > budget:
            lam_lo = mid
        else:
            lam_hi = mid
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
    lam_star = 0.5 * (lam_lo + lam_hi)
    return AllocationResult(c, batch.total(c), lam_star, iterations)


def _fill(
    batch: UtilityBatch, budgets: np.ndarray, groups: np.ndarray | None,
    rel_tol: float, max_iter: int, ctx,
) -> tuple[np.ndarray, ...]:
    """Water-fill ``k = len(budgets)`` pools in lock-step: the one bracket,
    bisection and interpolation behind every multi-pool entry point.

    ``groups=None`` lays the pools out as ``k`` equal contiguous rows
    (pairwise row sums, so each row is bit-identical to :func:`water_fill`);
    otherwise thread ``i`` is in pool ``groups[i]`` (``np.bincount`` sums).
    Each pool's bracket moves only on the passes its own loop would take.
    Slack pools saturate, empty budgets get nothing; neither is bisected.

    Returns ``(alloc, lam, slack, d, b)``: grants, prices (0 unless
    bisected), the slack mask, and per-pool doubling and bisection counts;
    a bisected pool costs ``d + b + 3`` demand evaluations.
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
        x = batch.inverse_derivative_each(spread(lam))
        return np.minimum(x, caps, out=x)  # x is a fresh temporary

    slack = budgets >= pool_sum(caps)
    active = ~slack & (budgets > 0.0)
    d, b = np.zeros((2, k), dtype=np.int64)
    if not np.any(active):
        return np.where(spread(slack), caps, 0.0), np.zeros(k), slack, d, b

    # Double each pool's upper price while its demand there exceeds its
    # budget; this can take hundreds of passes, so it polls the deadline.
    lam_lo, lam_hi = np.zeros(k), np.ones(k)  # demand(0) is the cap total
    over = active & (pool_sum(demand(lam_hi)) > budgets)
    while np.any(over):
        if ctx is not None:
            ctx.check_deadline()
        lam_lo = np.where(over, lam_hi, lam_lo)
        lam_hi = np.where(over, lam_hi * 2.0, lam_hi)
        d += over
        if float(np.max(lam_hi)) > 1e300:
            raise RuntimeError("water-fill could not bracket a marginal price")
        over &= pool_sum(demand(lam_hi)) > budgets

    for _ in range(max_iter):
        if ctx is not None:
            ctx.check_deadline()
        todo = active & (lam_hi - lam_lo > rel_tol * np.maximum(lam_hi, 1.0))
        if not np.any(todo):
            break
        mid = 0.5 * (lam_lo + lam_hi)
        b += todo
        over = pool_sum(demand(mid)) > budgets
        lam_lo = np.where(todo & over, mid, lam_lo)
        lam_hi = np.where(todo & ~over, mid, lam_hi)

    # Interpolate between the bracketing allocations, as water_fill does.
    c_hi = demand(lam_lo)  # pool total > budget
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
    return alloc, np.where(active, 0.5 * (lam_lo + lam_hi), 0.0), slack, d, b


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
        Per-trial bisection steps (bracketing included), shape ``(trials,)``.
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
