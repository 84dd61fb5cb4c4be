"""Post-assignment allocation reclamation.

Algorithms 1 and 2 allocate each thread at most its super-optimal grant
``ĉ_i``, so a server whose threads are all "full" can finish with idle
resource while unfull threads starve elsewhere.  Re-running the optimal
single-server allocator *within each server* (assignments unchanged) hands
that idle resource to the co-located threads.  Utility can only increase —
the current allocation is feasible for each per-server subproblem and
water-filling is optimal for it — so the ``α = 2(√2−1)`` guarantee is
preserved.  ``solve(..., reclaim=True)`` applies this by default; the raw
paper algorithms remain available via ``reclaim=False``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.allocation.grouped import water_fill_grouped
from repro.core.problem import AAProblem, Assignment
from repro.observability import RECLAIM_CALLS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import SolveContext


def waterfill_within_servers(
    problem: AAProblem,
    servers: "np.ndarray | list[int]",
    ctx: "SolveContext | None" = None,
    *,
    start: float | None = None,
) -> Assignment:
    """Optimal allocation of each server's capacity given a fixed assignment.

    ``servers[i]`` names thread ``i``'s server; each server's full capacity
    is water-filled among its threads (one vectorized grouped price search
    for all servers).  This is both the reclamation post-pass and the
    allocation half of every two-step baseline.  ``start`` seeds every
    server's price search (default 1; see
    :func:`~repro.allocation.grouped.water_fill_grouped`).
    """
    servers = np.asarray(servers, dtype=np.int64)
    if servers.shape != (problem.n_threads,):
        raise ValueError("servers must name one server per thread")
    if servers.size and (servers.min() < 0 or servers.max() >= problem.n_servers):
        raise ValueError("server indices out of range")
    m = problem.n_servers
    result = water_fill_grouped(
        problem.utilities,
        servers,
        np.full(m, problem.capacity),
        ctx=ctx,
        start=None if start is None else np.full(m, start),
    )
    return Assignment(servers=servers, allocations=result.allocations)


def reclaim(
    problem: AAProblem,
    assignment: Assignment,
    ctx: "SolveContext | None" = None,
    *,
    start: float | None = None,
) -> Assignment:
    """Reallocate idle per-server resource; never decreases total utility.

    ``ctx`` is an optional :class:`~repro.engine.context.SolveContext`
    recording the pass (and its grouped price-search passes).  ``start``
    seeds every server's price search; callers that hold the instance's
    linearization pass its clearing price ``λ*`` (``Linearization.price``),
    which sits near every server's own price and saves a third to a half
    of the passes of a start at 1.  A start that is not positive and finite (a
    slack pool's 0) falls back to 1.  The start moves the result only at
    rounding level: every server's price is searched to the same tolerance.
    """
    if ctx is None:
        return waterfill_within_servers(problem, assignment.servers, start=start)
    ctx.count(RECLAIM_CALLS)
    with ctx.span("reclaim"):
        return waterfill_within_servers(problem, assignment.servers, ctx=ctx, start=start)
