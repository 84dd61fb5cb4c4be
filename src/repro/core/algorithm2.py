"""Algorithm 2 — the faster O(n(log mC)²) approximation algorithm.

Section VI of the paper: sort threads by their super-optimal utility
``g_i(ĉ_i)`` (nonincreasing), then re-sort threads ``m+1 … n`` of that
ordering by the ramp slope ``g_i(ĉ_i)/ĉ_i`` (nonincreasing).  Walk the
threads in order, always assigning to the server with the most remaining
resource and granting ``min(ĉ_i, residual)``.  A ``heapq`` max-heap of
``(-residual, server)`` keys makes each step one peek and one
``heapreplace``, ``O(log m)``; a thread with ``ĉ_i = 0`` changes no
residual, so it skips the heap and takes the server of the next thread
that does (about half the threads at the paper's sizes).  The
super-optimal allocation dominates the total running time.
:func:`max_residual_walk` is that walk, shared with the discrete pipeline
and the heterogeneous-capacity greedy.

Both sorts are stable with index tie-breaks, so runs are deterministic and
the Theorem V.17 tightness instance reproduces its 5/6 ratio exactly.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.core.linearize import Linearization, linearize
from repro.core.problem import ALPHA, AAProblem, Assignment
from repro.engine.registry import register_solver
from repro.observability import ALG2_HEAP_OPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import SolveContext


def two_key_order(top: np.ndarray, slope: np.ndarray, n_servers: int) -> np.ndarray:
    """The two-key processing order of Algorithm 2 (lines 1-2).

    Threads by ``top`` nonincreasing; positions ``n_servers`` onward are
    re-sorted by ``slope`` nonincreasing.  Stable sorts: equal keys keep
    ascending thread index, matching the deterministic tie-breaking used
    throughout the library.
    """
    top_order = np.argsort(-top, kind="stable")
    if top_order.shape[0] <= n_servers:
        return top_order
    head = top_order[:n_servers]
    tail = top_order[n_servers:]
    tail = tail[np.argsort(-slope[tail], kind="stable")]
    return np.concatenate([head, tail])


def thread_order(lin: Linearization, n_servers: int) -> np.ndarray:
    """:func:`two_key_order` of a linearization's ``top`` and ``slope``."""
    return two_key_order(lin.top, lin.slope, n_servers)


#: Threads per pass of :func:`max_residual_walk`'s inner loop.  The walk
#: reads demands and writes results through Python lists, which cost tens of
#: bytes per element; chunking keeps them small at n = 10^5 and beyond.
_WALK_CHUNK = 4096


def max_residual_walk(
    order: np.ndarray,
    demand: np.ndarray,
    residuals: np.ndarray,
    ctx: "SolveContext | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2's greedy (lines 3-6): ``(servers, grants)`` per thread.

    Visits the threads in ``order``, each thread at most once; each goes
    to the server with the most remaining resource, ties to the lowest
    server id, and is granted ``min(demand[i], residual)``.
    ``residuals`` holds each server's starting resource, nonnegative and
    not ``-0.0`` (every caller starts from positive capacities).  The heap
    holds ``(-residual, server)``; the keys are unique and only the peeked
    top is ever replaced, so its top is exactly "max residual, then lowest
    id".  Negation is exact, so grants and residuals are the values a
    max-heap over residuals would produce.

    Only threads with nonzero demand step through the heap, one peek and
    one ``heapreplace`` each.  A zero-demand thread is granted its own
    demand, ``+0.0`` or ``-0.0`` as ``min(d, r)`` returns it, and leaves
    every residual as it was.  So it takes the server that the next
    nonzero-demand thread in ``order`` takes, or the final top if none
    follows, and one ``searchsorted`` places them all after the loop.

    With ``ctx``, ``ALG2_HEAP_OPS`` counts one peek and one replace per
    thread, zero-demand threads included, and every loop step polls the
    deadline.
    """
    n = demand.shape[0]
    servers = np.full(n, -1, dtype=np.int64)
    grants = np.zeros(n, dtype=float)
    ordered = demand[order]
    zero = ordered == 0
    steps = order[~zero]  # the threads that move a residual, in walk order
    heap = [(-r, j) for j, r in enumerate(residuals.tolist())]
    heapq.heapify(heap)
    replace = heapq.heapreplace
    for start in range(0, steps.shape[0], _WALK_CHUNK):
        chunk = steps[start : start + _WALK_CHUNK]
        picked: list[int] = []
        granted: list[float] = []
        for d in demand[chunk].tolist():
            if ctx is not None:
                ctx.count(ALG2_HEAP_OPS, 2)  # one peek + one replace
                ctx.check_deadline()
            neg, j = heap[0]
            r = -neg
            c = r if r < d else d  # min(d, r), keeping d on ties as min() does
            picked.append(j)
            granted.append(c)
            replace(heap, (-(r - c), j))
        servers[chunk] = picked
        grants[chunk] = granted
    # Each zero-demand thread takes the next stepping thread's server.
    at = np.flatnonzero(zero)
    after = np.append(servers[steps], heap[0][1])
    waiting = order[at]
    servers[waiting] = after[np.searchsorted(np.flatnonzero(~zero), at)]
    grants[waiting] = ordered[at]
    if ctx is not None:
        ctx.count(ALG2_HEAP_OPS, 2 * at.shape[0])
    return servers, grants


def algorithm2(
    problem: AAProblem,
    lin: Linearization | None = None,
    ctx: "SolveContext | None" = None,
) -> Assignment:
    """Run Algorithm 2 on ``problem`` (same contract as :func:`algorithm1`).

    ``ctx`` is an optional :class:`~repro.engine.context.SolveContext`
    recording heap operations (one peek + one update per thread) and
    enforcing the wall-clock deadline at every thread with ``ĉ_i > 0``.
    """
    if lin is None:
        lin = linearize(problem, ctx=ctx) if ctx is None else ctx.linearization(problem)
    if ctx is None:
        return _algorithm2(problem, lin, None)
    with ctx.span("alg2"):
        return _algorithm2(problem, lin, ctx)


def _algorithm2(
    problem: AAProblem, lin: Linearization, ctx: "SolveContext | None"
) -> Assignment:
    servers, alloc = max_residual_walk(
        thread_order(lin, problem.n_servers),
        lin.c_hat,
        np.full(problem.n_servers, problem.capacity),
        ctx,
    )
    return Assignment(servers=servers, allocations=alloc)


register_solver(
    "alg2",
    lambda problem, lin, ctx, seed: algorithm2(problem, lin, ctx=ctx),
    kind="paper",
    ratio=ALPHA,
    complexity="O(n(log mC)²)",
    reclaim=True,
    uses_linearization=True,
    description="Paper Algorithm 2: two-key sort + max-residual heap greedy",
)
