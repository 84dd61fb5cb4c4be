"""Price-discovery solving: damped tatonnement that scales to millions of threads.

Algorithm 2 places threads one at a time — a Python-level heap walk whose
per-trial wall-clock dominates once ``n`` reaches 10⁵.  This module takes
the dual route of Agrawal–Boyd–Narayanan ("Allocation of Fungible
Resources via a Fast, Scalable Price Discovery Method", arXiv 2104.00282):
treat the fleet's pooled capacity ``m*C`` as one fungible resource, quote
a price ``lam``, let every thread answer with its best-response demand
``min(f_i'^{-1}(lam), cap_i)`` — one vectorized inverse-marginal
evaluation — and move the price by a damped multiplicative update
``lam <- lam * (D(lam)/B)^gamma`` until demand clears supply.  Aggregate
demand is nonincreasing in the price, so the iteration is safeguarded by
the bisection bracket it discovers as a side effect: any proposal that
leaves the bracket is replaced by its midpoint, which bounds the iteration
count without giving up the multiplicative update's big strides.

Three stages, each an O(n log n) array kernel with no per-thread Python:

1. **discover** — the safeguarded price iteration above; the epilogue
   interpolates the two bracketing demand vectors so the budget is hit
   exactly (the same tie-resolution as ``water_fill``).
2. **pack** — sort demands descending and cut the prefix-sum line into
   ``m`` segments of length ``C``: thread intervals are disjoint within a
   server by construction, so loads never exceed capacity regardless of
   float roundoff.
3. **refill** — each server's capacity is re-split optimally among its
   residents by the grouped water-fill (:func:`~repro.core.batch.reclaim_batch`
   at a relaxed tolerance, every server's price search starting at the
   discovered price), recovering the utility clipped at segment
   boundaries.  The solver registers with ``reclaim=False``: this pass
   *is* its reclamation, run at a tolerance chosen for the large-n regime.

Everything is implemented trial-batched (the masked lock-step idiom of
:func:`~repro.allocation.waterfill.water_fill_batch`); the scalar entry
points wrap one instance as a one-trial batch, so the registered solver
and its harness ``batch_fn`` produce the same bits by construction.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.registry import register_solver
from repro.observability import (
    BATCH_EVALUATIONS,
    PRICE_CONVERGENCE_RESIDUAL,
    PRICE_ITERATIONS,
    PRICE_UPDATE_ITERATIONS,
)
from repro.utility.batch import as_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Runtime imports of repro.core.batch live inside the functions below:
    # this module is re-exported by the repro.allocation package, which
    # repro.core.linearize imports, so a module-level import would cycle.
    from repro.core.batch import BatchAssignment, BatchLinearization, BatchProblem
    from repro.core.linearize import Linearization
    from repro.core.problem import AAProblem, Assignment
    from repro.engine.context import SolveContext

#: Relative demand/budget residual at which the price iteration stops.
DEFAULT_REL_TOL = 1e-6
#: Exponent of the multiplicative update ``lam * (D/B)^damping``.
DEFAULT_DAMPING = 0.5
#: Price-update iteration cap (the safeguard bisects, so the bracket
#: shrinks at least geometrically and this is never a real bound).
DEFAULT_MAX_ITER = 200
#: Price-search tolerance of the per-server refill pass.  Relaxed relative to
#: the reclaim default (1e-12): at n = 10⁵⁺ the refill is the second
#: largest cost and the utility left behind at 1e-6 is below measurement
#: noise, which the oracle-equivalence tests pin.
DEFAULT_REFILL_TOL = 1e-6


@dataclass(frozen=True)
class PriceResult:
    """Outcome of scalar :func:`discover_price`.

    Attributes
    ----------
    allocations:
        Budget-exact per-thread demands at the discovered price, ``(n,)``.
    total_utility:
        ``sum_i f_i(allocations[i])``.
    price:
        The final quoted price (0 when the budget was slack).
    iterations:
        Price updates performed (= demand evaluations).
    residual:
        Final relative residual ``|D(price) - budget| / budget``.
    """

    allocations: np.ndarray
    total_utility: float
    price: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class BatchPriceResult:
    """Per-trial price discovery outcomes (``(trials, n)`` allocations)."""

    allocations: np.ndarray
    price: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray


def discover_prices_batch(
    utilities,
    n_trials: int,
    budgets,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    damping: float = DEFAULT_DAMPING,
    max_iter: int = DEFAULT_MAX_ITER,
    ctx: "SolveContext | None" = None,
) -> BatchPriceResult:
    """Clear ``n_trials`` independent single-pool markets in lock-step.

    ``utilities`` is one flat trial-major batch of ``n_trials * n``
    threads; ``budgets`` gives each trial's pool.  Each pass evaluates the
    whole batch's best-response demand once, updates the per-trial price
    multiplicatively (damped by ``damping``, the step factor clipped to
    ``[1/8, 8]``), and falls back to bisecting the bracket the iteration
    has discovered whenever a proposal escapes it.  A trial stops when its
    relative residual is within ``rel_tol`` or its bracket is numerically
    exhausted; masked updates keep every trial on exactly the trajectory a
    one-trial call would take, so per-trial results are independent of how
    trials are batched.

    Counters on ``ctx`` are per-trial-equivalent totals (demand
    evaluations, ``PRICE_UPDATE_ITERATIONS``, and the final residuals in
    parts-per-billion under ``PRICE_CONVERGENCE_RESIDUAL``), and each
    trial's iterations-to-converge lands in the ``aart_price_iterations``
    histogram — all merged bit-identically across workers like every
    other instrument.
    """
    batch = as_batch(utilities)
    n_trials = int(n_trials)
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    if rel_tol <= 0 or not (0 < damping <= 1) or max_iter < 1:
        raise ValueError(
            f"need rel_tol > 0, 0 < damping <= 1, max_iter >= 1; got "
            f"{rel_tol!r}, {damping!r}, {max_iter!r}"
        )
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
    if n == 0:
        zeros = np.zeros(n_trials)
        return BatchPriceResult(
            np.zeros((n_trials, 0)),
            zeros,
            np.zeros(n_trials, dtype=np.int64),
            zeros.copy(),
        )

    caps = batch.caps
    caps2 = caps.reshape(n_trials, n)
    cap_totals = np.sum(caps2, axis=1)
    slack = budgets >= cap_totals
    zero = (budgets == 0.0) & ~slack
    active = ~slack & ~zero

    evals = np.zeros(n_trials, dtype=np.int64)
    iterations = np.zeros(n_trials, dtype=np.int64)
    residual = np.zeros(n_trials)

    def demand_rows(lam_rows: np.ndarray) -> np.ndarray:
        lam_threads = np.repeat(lam_rows, n)
        return batch.inverse_derivative_each(lam_threads).reshape(n_trials, n)

    # Opening quote: the median positive marginal at half caps puts the
    # first price inside the demand curve's active range, so the clipped
    # multiplicative steps reach the clearing price in a handful of moves.
    d_mid = batch.derivative(0.5 * caps).reshape(n_trials, n)
    seeds = np.where((d_mid > 0.0) & np.isfinite(d_mid), d_mid, np.nan)
    seedless = ~np.any(np.isfinite(seeds), axis=1)
    seeds[seedless, :] = 1.0  # flat rows: nanmedian must not see all-NaN
    lam = np.nanmedian(seeds, axis=1)
    lam = np.where(np.isfinite(lam) & (lam > 0.0), lam, 1.0)

    # Bracket state: demand(0) = caps is always on the over side; the
    # under side starts as the zero vector, which doubles as the epilogue
    # fallback when every evaluated price stayed over budget.
    lam_lo = np.zeros(n_trials)
    lam_hi = np.full(n_trials, np.inf)
    c_over = caps2.copy()
    s_over = cap_totals.copy()
    c_under = np.zeros((n_trials, n))
    s_under = np.zeros(n_trials)

    run = active.copy()
    for _ in range(max_iter):
        if not np.any(run):
            break
        if ctx is not None:
            ctx.check_deadline()
        c = demand_rows(lam)
        totals = np.sum(c, axis=1)
        evals[run] += 1
        iterations[run] += 1
        over = run & (totals >= budgets)
        under = run & ~over
        lam_lo = np.where(over, lam, lam_lo)
        c_over = np.where(over[:, None], c, c_over)
        s_over = np.where(over, totals, s_over)
        lam_hi = np.where(under, lam, lam_hi)
        c_under = np.where(under[:, None], c, c_under)
        s_under = np.where(under, totals, s_under)
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = np.where(run, np.abs(totals - budgets) / budgets, residual)
            done = run & (residual <= rel_tol)
            factor = np.where(totals > 0.0, (totals / budgets) ** damping, 0.125)
        factor = np.clip(factor, 0.125, 8.0)
        prop = lam * factor
        inside = (prop > lam_lo) & (prop < lam_hi)
        fallback = np.where(np.isfinite(lam_hi), 0.5 * (lam_lo + lam_hi), lam * 8.0)
        prop = np.where(inside, prop, fallback)
        exhausted = np.isfinite(lam_hi) & (
            lam_hi - lam_lo <= 1e-12 * np.maximum(lam_hi, 1.0)
        )
        run = run & ~done & ~exhausted
        lam = np.where(run, prop, lam)

    # Epilogue: interpolate the bracketing demand pair so each trial's
    # total hits its budget exactly — threads that move in the bracket are
    # (to tolerance) indifferent at the clearing price, same as the
    # water-fill tie resolution.
    gap = s_over - s_under
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(gap > 0.0, (budgets - s_under) / np.where(gap > 0.0, gap, 1.0), 1.0)
    t = np.clip(t, 0.0, 1.0)
    alloc = c_under + t[:, None] * (c_over - c_under)
    alloc = np.where(slack[:, None], caps2, alloc)
    alloc = np.where(zero[:, None], 0.0, alloc)
    price = np.where(active, lam, 0.0)
    if np.any(zero):
        # Scalar water-fill convention for empty budgets: price = the
        # highest marginal anyone would pay at zero allocation.
        deriv0 = batch.derivative(np.zeros(n_total)).reshape(n_trials, n)
        price = np.where(zero, np.max(deriv0, axis=1, initial=0.0), price)

    if ctx is not None:
        ctx.count(BATCH_EVALUATIONS, int(np.sum(evals)))
        ctx.count(PRICE_UPDATE_ITERATIONS, int(np.sum(iterations)))
        ctx.count(PRICE_CONVERGENCE_RESIDUAL, int(np.sum(np.rint(residual * 1e9))))
        for its in iterations:
            ctx.observe(
                PRICE_ITERATIONS,
                float(its),
                help="Price-update iterations to convergence, per solve.",
            )
    return BatchPriceResult(
        allocations=alloc, price=price, iterations=iterations, residual=residual
    )


def discover_price(
    utilities,
    budget: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    damping: float = DEFAULT_DAMPING,
    max_iter: int = DEFAULT_MAX_ITER,
    ctx: "SolveContext | None" = None,
) -> PriceResult:
    """Discover the market-clearing price of one pool (scalar front door).

    Semantically :func:`~repro.allocation.waterfill.water_fill` with a
    different search: typically ~20 demand evaluations at ``rel_tol=1e-6``
    versus 15–17 search steps at the water-fill's 1e-12, and the iteration is
    shared bit-for-bit with the trial-batched kernel (this wrapper runs a
    one-trial batch).
    """
    batch = as_batch(utilities)
    result = discover_prices_batch(
        batch,
        1,
        np.array([float(budget)]),
        rel_tol=rel_tol,
        damping=damping,
        max_iter=max_iter,
        ctx=ctx,
    )
    allocations = result.allocations[0]
    return PriceResult(
        allocations=allocations,
        total_utility=batch.total(allocations),
        price=float(result.price[0]),
        iterations=int(result.iterations[0]),
        residual=float(result.residual[0]),
    )


def pack_demands_batch(demands, n_servers, capacity) -> tuple[np.ndarray, np.ndarray]:
    """Place budget-exact demand rows onto servers, feasible by construction.

    Sorts each trial's demands descending and cuts the prefix-sum line
    ``[0, sum(d))`` into capacity-``C`` segments: the thread starting at
    offset ``s`` lands on server ``floor(s / C)`` and is granted
    ``min(d, (j+1)C - s)``.  Because thread intervals are disjoint and a
    grant never crosses its segment's right edge, every server's load is
    at most ``C`` *by construction* — no float accumulation can break
    feasibility, only shave grants (which the refill pass restores).
    Descending order means at most one straddling thread per server
    boundary loses anything at all.

    Returns ``(servers, allocations)`` in the original thread order,
    shapes ``(trials, n)``.
    """
    d_rows = np.asarray(demands, dtype=float)
    if d_rows.ndim != 2:
        raise ValueError("demands must be (trials, n)")
    trials, n = d_rows.shape
    m = np.broadcast_to(np.asarray(n_servers, dtype=np.int64), (trials,))
    cap = np.broadcast_to(np.asarray(capacity, dtype=float), (trials,))
    order = np.argsort(-d_rows, axis=1, kind="stable")
    d = np.take_along_axis(d_rows, order, axis=1)
    cum = np.cumsum(d, axis=1)
    start = np.concatenate([np.zeros((trials, 1)), cum[:, :-1]], axis=1)
    j = np.minimum((start // cap[:, None]).astype(np.int64), (m - 1)[:, None])
    grant = np.maximum(np.minimum(d, (j + 1) * cap[:, None] - start), 0.0)
    servers = np.empty_like(order)
    np.put_along_axis(servers, order, j, axis=1)
    alloc = np.empty_like(d)
    np.put_along_axis(alloc, order, grant, axis=1)
    return servers, alloc


def price_discovery_batch_kernel(
    bp: BatchProblem,
    ctx: "SolveContext | None" = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    damping: float = DEFAULT_DAMPING,
    max_iter: int = DEFAULT_MAX_ITER,
    refill_tol: float = DEFAULT_REFILL_TOL,
) -> BatchAssignment:
    """Discover → pack → refill for every trial (no spans; callers fold)."""
    from repro.core.batch import BatchAssignment, reclaim_batch

    result = discover_prices_batch(
        bp.utilities,
        bp.n_trials,
        bp.pools,
        rel_tol=rel_tol,
        damping=damping,
        max_iter=max_iter,
        ctx=ctx,
    )
    servers, alloc = pack_demands_batch(result.allocations, bp.n_servers, bp.capacity)
    packed = BatchAssignment(servers=servers, allocations=alloc)
    return reclaim_batch(bp, packed, ctx, rel_tol=refill_tol, start=result.price)


def price_discovery(
    problem: AAProblem,
    lin: "Linearization | None" = None,
    ctx: "SolveContext | None" = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    damping: float = DEFAULT_DAMPING,
    max_iter: int = DEFAULT_MAX_ITER,
    refill_tol: float = DEFAULT_REFILL_TOL,
) -> Assignment:
    """Solve one AA instance by price discovery (the registered solver).

    ``lin`` is accepted for contract uniformity and ignored — the whole
    point is that no ``O(n (log mC)²)`` linearization is needed; the
    certificate-producing ``solve()`` facade still computes one for its
    bound, but ``run_solver``/``SolverSpec.run`` skip it entirely.
    """
    from repro.core.batch import BatchAssignment, BatchProblem, reclaim_batch

    bp = BatchProblem(
        problem.utilities,
        n_trials=1,
        n_servers=problem.n_servers,
        capacity=problem.capacity,
    )
    with ctx.span("price") if ctx is not None else nullcontext():
        result = discover_prices_batch(
            bp.utilities,
            1,
            bp.pools,
            rel_tol=rel_tol,
            damping=damping,
            max_iter=max_iter,
            ctx=ctx,
        )
        servers, alloc = pack_demands_batch(
            result.allocations, bp.n_servers, bp.capacity
        )
    with ctx.span("reclaim") if ctx is not None else nullcontext():
        refilled = reclaim_batch(
            bp,
            BatchAssignment(servers=servers, allocations=alloc),
            ctx,
            rel_tol=refill_tol,
            start=result.price,
        )
    return refilled.assignment(0)


def _batch_fn(
    bp: BatchProblem,
    blin: "BatchLinearization | None",
    ctx: "SolveContext | None",
    rngs: Sequence[np.random.Generator],
) -> BatchAssignment:
    """Registry ``batch_fn`` contract (deterministic: ``blin``/``rngs`` unused)."""
    return price_discovery_batch_kernel(bp, ctx)


# The batch twin is passed at registration (not via ``attach_batch_fn``,
# whose ``get_solver`` lookup would re-enter the builtin loader while this
# module is still mid-import): the harness's batch backend routes whole
# sweep points through the same kernel the scalar path runs on a one-trial
# batch.
register_solver(
    "price_discovery",
    lambda problem, lin, ctx, seed: price_discovery(problem, lin, ctx),
    kind="extension",
    ratio=None,
    complexity="O(n log n + n·iters), fully vectorized",
    reclaim=False,  # the refill stage is its (relaxed-tolerance) reclamation
    uses_linearization=False,
    description="Dual price discovery: damped tatonnement + prefix packing + per-server refill",
    batch_fn=_batch_fn,
)
