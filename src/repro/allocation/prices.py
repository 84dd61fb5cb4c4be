"""Price-discovery solving: pack the super-optimal demands, refill from λ*.

Algorithm 2 places threads one at a time — a Python-level heap walk whose
per-trial wall-clock dominates once ``n`` reaches 10⁵.  This module takes
the dual route of Agrawal–Boyd–Narayanan ("Allocation of Fungible
Resources via a Fast, Scalable Price Discovery Method", arXiv 2104.00282):
treat the fleet's pooled capacity ``m*C`` as one fungible resource, find
the price ``λ*`` at which every thread's best-response demand
``min(f_i'^{-1}(λ*), cap_i)`` clears it, then place those demands.  They
price many resources at once and need a tatonnement for it; with one
pooled resource the dual is one-dimensional, and clearing it *is* the
paper's super-optimal allocation (Definition V.1, Lemma V.3).  So the
market is cleared once, by the shared linearization, and each stage after
it is an O(n log n) array kernel with no per-thread Python:

1. **linearize** — the super-optimal water-fill of the ``m*C`` pool
   (:func:`~repro.core.linearize.linearize`, or ``linearize_batch``)
   gives the budget-exact demands ``ĉ`` and their clearing price
   ``λ*`` (``Linearization.price``).  The solver registers with
   ``uses_linearization=True``, so ``solve()`` shares the fill its
   certificate needs through the :class:`~repro.engine.cache.LinearizationCache`.
2. **pack** — sort demands descending and cut the prefix-sum line into
   ``m`` segments of length ``C``: thread intervals are disjoint within a
   server by construction, so loads never exceed capacity regardless of
   float roundoff.
3. **refill** — each server's capacity is re-split optimally among its
   residents by the grouped water-fill (:func:`~repro.core.batch.reclaim_batch`
   at :data:`REFILL_TOL`, every server's price search starting at
   ``λ*``), recovering the utility clipped at segment boundaries.  The
   solver registers with ``reclaim=False``: this pass *is* its
   reclamation, run at a tolerance chosen for the large-n regime.

The pipeline is written once, trial-batched; the scalar solver runs it on
a one-trial batch, so the registered solver and its ``batch_fn`` produce
the same bits by construction.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.registry import register_solver

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Runtime imports of repro.core live inside the functions below: this
    # module is re-exported by the repro.allocation package, which
    # repro.core.linearize imports, so a module-level import would cycle.
    from repro.core.batch import BatchAssignment, BatchLinearization, BatchProblem
    from repro.core.linearize import Linearization
    from repro.core.problem import AAProblem, Assignment
    from repro.engine.context import SolveContext
    from repro.utils.rng import TrialStreams

#: Price-search tolerance of the per-server refill pass.  Relaxed relative to
#: the reclaim default (1e-12): at n = 10⁵⁺ the refill is the second
#: largest cost and the utility left behind at 1e-6 is below measurement
#: noise, which the oracle-equivalence tests pin.
REFILL_TOL = 1e-6


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
    blin: BatchLinearization,
    ctx: "SolveContext | None" = None,
) -> BatchAssignment:
    """Pack every trial's super-optimal demands, then refill from its λ*.

    ``blin`` is the trials' shared linearization (``linearize_batch(bp)``
    or a scalar one wrapped by ``BatchLinearization.from_scalar``).  With a
    context, the two stages trace as spans ``pack`` and ``reclaim``.
    """
    from repro.core.batch import BatchAssignment, reclaim_batch

    with ctx.span("pack") if ctx is not None else nullcontext():
        servers, alloc = pack_demands_batch(blin.c_hat, bp.n_servers, bp.capacity)
    with ctx.span("reclaim") if ctx is not None else nullcontext():
        return reclaim_batch(
            bp,
            BatchAssignment(servers=servers, allocations=alloc),
            ctx,
            rel_tol=REFILL_TOL,
            start=blin.price,
        )


def price_discovery(
    problem: AAProblem,
    lin: "Linearization | None" = None,
    ctx: "SolveContext | None" = None,
) -> Assignment:
    """Solve one AA instance by price discovery (the registered solver).

    Runs :func:`price_discovery_batch_kernel` on a one-trial batch; a
    missing ``lin`` is resolved as :func:`~repro.core.algorithm2.algorithm2`
    resolves it.
    """
    from repro.core.batch import BatchLinearization, BatchProblem
    from repro.core.linearize import linearize

    if lin is None:
        lin = linearize(problem) if ctx is None else ctx.linearization(problem)
    bp = BatchProblem(
        problem.utilities,
        n_trials=1,
        n_servers=problem.n_servers,
        capacity=problem.capacity,
    )
    blin = BatchLinearization.from_scalar(lin)
    return price_discovery_batch_kernel(bp, blin, ctx).assignment(0)


def _batch_fn(
    bp: BatchProblem,
    blin: "BatchLinearization",
    ctx: "SolveContext | None",
    rngs: "TrialStreams",
) -> BatchAssignment:
    """Registry ``batch_fn`` contract (deterministic: ``rngs`` unused)."""
    return price_discovery_batch_kernel(bp, blin, ctx)


# The batch twin is passed at registration (not via ``attach_batch_fn``,
# whose ``get_solver`` lookup would re-enter the builtin loader while this
# module is still mid-import).
register_solver(
    "price_discovery",
    lambda problem, lin, ctx, seed: price_discovery(problem, lin, ctx),
    kind="extension",
    ratio=None,
    complexity="O(n log n) after the linearization, fully vectorized",
    reclaim=False,  # the refill stage is its (relaxed-tolerance) reclamation
    uses_linearization=True,
    description="Price discovery: prefix-pack the super-optimal ĉ, refill each server from λ*",
    batch_fn=_batch_fn,
)
