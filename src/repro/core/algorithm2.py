"""Algorithm 2 — the faster O(n(log mC)²) approximation algorithm.

Section VI of the paper: sort threads by their super-optimal utility
``g_i(ĉ_i)`` (nonincreasing), then re-sort threads ``m+1 … n`` of that
ordering by the ramp slope ``g_i(ĉ_i)/ĉ_i`` (nonincreasing).  Walk the
threads in order, always assigning to the server with the most remaining
resource and granting ``min(ĉ_i, residual)``: with a max-heap of
``(-residual, server)`` keys, one peek and one update per thread,
``O(log m)``.  :func:`max_residual_walk` is that walk, shared with the
discrete pipeline and the heterogeneous-capacity greedy, and it takes the
heap's decisions bit for bit without paying a Python step for each.  A
thread with ``ĉ_i = 0`` changes no residual, so it takes the server of the
next thread that does (about half the threads at the paper's sizes).  The
others move in exact speculated blocks: the next ``k`` threads go to the
top ``k`` servers for as long as no server they updated would be the
heap's top again, which at n = 10⁵ commits the walk in a few dozen NumPy
blocks.  Where blocks commit short, the walk steps a ``heapq`` list.  The
super-optimal allocation dominates the total running time.

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


#: Threads per stretch of heap steps.  Heap steps read demands and write
#: results through Python lists, which cost tens of bytes per element; a
#: stretch keeps them small at n = 10^5 and beyond.
_WALK_CHUNK = 4096

#: Shortest block commit that keeps blocks well ahead of heap steps.  A
#: block of 256 costs about as much as 50 heap steps at m = 12,500, and
#: heap steps get cheaper as m shrinks; a shorter commit sends the walk
#: back to heap steps.  With fewer servers than this no block can commit
#: that many, so the walk only steps the heap.
_MIN_COMMIT = 256


def _keys(neg: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The heap order as one sorted complex array: ``-residual + 1j * server``.

    Built part by part, since complex arithmetic would turn ``-0.0`` into
    ``+0.0``.
    """
    keys = np.empty(neg.shape[0], dtype=complex)
    keys.real = neg
    keys.imag = ids
    keys.sort()
    return keys


def _block(
    keys: np.ndarray, need: np.ndarray, picks: np.ndarray, given: np.ndarray
) -> tuple[int, np.ndarray]:
    """Speculate ``need``'s threads onto the top servers of ``keys``; commit a prefix.

    ``keys`` is the heap order as one sorted complex array, ``-residual``
    in the real part and the server id in the imaginary part; NumPy orders
    complex values lexicographically, exactly as the heap orders its
    ``(-residual, server)`` tuples.  Thread ``i`` of the block goes to the
    ``i``-th server for as long as no server already updated in the block
    outranks that server: the committed prefix is the walk's own up to its
    first repeated server.  Writes the prefix's servers and grants into
    ``picks`` and ``given`` and returns its length with the merged order.
    """
    k = need.shape[0]
    top = keys[:k]
    r = -top.real
    ids = top.imag
    c = np.where(r < need, r, need)  # min(d, r), keeping d on ties as min() does
    moved = np.empty(k, dtype=complex)
    moved.real = -(r - c)
    moved.imag = ids
    # Updated server i outranks every candidate from its searchsorted
    # position on, and only candidates after i can meet it.
    blocked = np.maximum(np.searchsorted(top, moved), np.arange(1, k + 1))
    p = int(blocked.min())
    picks[:p] = ids[:p]
    given[:p] = c[:p]
    moved = np.sort(moved[:p])
    rest = keys[p:]
    return p, np.insert(rest, np.searchsorted(rest, moved), moved)


def max_residual_walk(
    order: np.ndarray,
    demand: np.ndarray,
    residuals: np.ndarray,
    ctx: "SolveContext | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2's greedy (lines 3-6): ``(servers, grants)`` per thread.

    Visits the threads in ``order``, each thread at most once; each goes
    to the server with the most remaining resource, ties to the lowest
    server id, and is granted ``min(demand[i], residual)``.  Demands are
    nonnegative; ``residuals`` holds each server's starting resource,
    nonnegative and not ``-0.0`` (every caller starts from positive
    capacities).  The result is bit for bit that of a heap of
    ``(-residual, server)`` keys stepped once per thread.

    A thread with zero demand is granted its own demand, ``+0.0`` or
    ``-0.0`` as ``min(d, r)`` returns it, and leaves every residual as it
    was.  So it takes the server that the next nonzero-demand thread in
    ``order`` takes, or the final top if none follows, and one
    ``searchsorted`` places them all after the walk.

    The threads with nonzero demand move in blocks while blocks pay.  The
    servers are kept in heap order as one sorted array; a block of ``k``
    threads is speculated onto the top ``k`` servers, its longest exact
    prefix is committed (see :func:`_block`), and the updated servers are
    merged back with one ``searchsorted``.  The next block is twice the
    last commit, so ``k`` doubles while whole blocks commit.  A commit
    shorter than ``_MIN_COMMIT`` (tiny demands against spread residuals
    keep one server on top for many steps) turns the order into a
    ``heapq`` list, and the walk takes one peek and one ``heapreplace`` per
    thread, in stretches of ``_WALK_CHUNK``.  After a stretch whose last
    ``_MIN_COMMIT`` servers were all distinct, it tries a block again;
    each short commit doubles the stretches it waits before the next try.
    So there is at most one short block per heap stretch, and a walk that
    never pays for a block costs about the heap walk.

    With ``ctx``, ``ALG2_HEAP_OPS`` counts one peek and one replace per
    thread, zero-demand threads included, and the deadline is polled
    before every heap step and every block, so a spent deadline raises
    before any nonzero-demand grant.
    """
    n = demand.shape[0]
    m = residuals.shape[0]
    servers = np.full(n, -1, dtype=np.int64)
    grants = np.zeros(n, dtype=float)
    ordered = demand[order]
    moving = ordered != 0
    steps = order[moving]  # the threads that move a residual, in walk order
    need = np.asarray(ordered[moving], dtype=float)
    total = need.shape[0]
    picks = np.empty(total, dtype=np.int64)
    given = np.empty(total)
    residuals = np.asarray(residuals, dtype=float)
    speculate = m >= _MIN_COMMIT
    heap: list | None = None
    if speculate:
        keys = _keys(-residuals, np.arange(m))
    else:  # no block can pay: heap steps only
        heap = [(-r, j) for j, r in enumerate(residuals.tolist())]
        heapq.heapify(heap)
    k, wait, waited = _MIN_COMMIT, 1, 0
    t = 0
    while t < total:
        if heap is None:
            if ctx is not None:
                ctx.check_deadline()
            p, keys = _block(keys, need[t : t + k], picks[t:], given[t:])
            if ctx is not None:
                ctx.count(ALG2_HEAP_OPS, 2 * p)
            t += p
            if p >= _MIN_COMMIT:
                k, wait = min(2 * p, m), 1
            elif t < total:
                # Short: heap steps.  A sorted array is already a heap.
                heap = list(zip(keys.real.tolist(), keys.imag.astype(np.int64).tolist()))
                k, wait, waited = _MIN_COMMIT, 2 * wait, 0
            continue
        stop = min(t + _WALK_CHUNK, total)
        picked: list[int] = []
        granted: list[float] = []
        replace = heapq.heapreplace
        for d in need[t:stop].tolist():
            if ctx is not None:
                ctx.count(ALG2_HEAP_OPS, 2)  # one peek + one replace
                ctx.check_deadline()
            neg, j = heap[0]
            r = -neg
            c = r if r < d else d  # min(d, r), keeping d on ties as min() does
            picked.append(j)
            granted.append(c)
            replace(heap, (-(r - c), j))
        picks[t:stop] = picked
        given[t:stop] = granted
        t = stop
        waited += 1
        if (
            speculate
            and waited >= wait
            and stop >= _MIN_COMMIT
            and np.unique(picks[stop - _MIN_COMMIT : stop]).shape[0] == _MIN_COMMIT
        ):
            pairs = np.array(heap, dtype=float)
            keys, heap = _keys(pairs[:, 0], pairs[:, 1]), None
    top = int(heap[0][1]) if heap is not None else int(keys[0].imag)
    servers[steps] = picks
    grants[steps] = given
    # Each zero-demand thread takes the next stepping thread's server.
    at = np.flatnonzero(~moving)
    after = np.append(picks, top)
    waiting = order[at]
    servers[waiting] = after[np.searchsorted(np.flatnonzero(moving), at)]
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
    description="Paper Algorithm 2: two-key sort + max-residual greedy, in exact blocks",
)
