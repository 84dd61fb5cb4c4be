"""Batched Algorithm 2: the two-key greedy, vectorized across trials.

Runs the paper's Algorithm 2 on every trial of a
:class:`~repro.core.batch.BatchProblem` in lock-step.  The two-key
processing order becomes a pair of stable ``axis=1`` argsorts (equal to
row-wise 1-D sorts); the greedy walk becomes ``n`` vectorized steps, each
assigning one thread *per trial* to that trial's max-residual server via
a first-occurrence ``np.argmax`` — which breaks residual ties toward the
smallest server index, exactly like the scalar walk's ``heapq`` keys
``(-residual, server)``.  The walk is therefore bit-identical to
the scalar :func:`~repro.core.algorithm2.algorithm2` per trial, with no
per-trial fallback needed; only heterogeneous server counts across trials
(never produced by the harness, whose sweep points fix ``m``) drop to a
per-trial ordering loop.

The module registers ``algorithm2_batch`` as an ordinary
:class:`~repro.engine.registry.SolverSpec` (kind ``"batch"``): on a scalar
:class:`~repro.core.problem.AAProblem` it wraps the instance as a
one-trial batch, so ``aart solvers``, ``solve()``, the service's replan
path and the benchmarks can select it like any other solver.  It also
attaches itself as the ``batch_fn`` of the scalar ``alg2`` spec, which is
how the experiment harness routes whole sweep points through this kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.algorithm2 import thread_order
from repro.core.batch import (
    BatchAssignment,
    BatchLinearization,
    BatchProblem,
)
from repro.core.linearize import Linearization, linearize
from repro.core.problem import ALPHA, AAProblem, Assignment
from repro.engine.registry import attach_batch_fn, register_solver
from repro.observability import ALG2_HEAP_OPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import SolveContext
    from repro.utils.rng import TrialStreams


def thread_order_batch(blin: BatchLinearization, n_servers: np.ndarray) -> np.ndarray:
    """Per-trial two-key processing orders, shape ``(trials, n)``.

    Row ``t`` equals ``thread_order(blin.trial(t), n_servers[t])`` exactly:
    stable ``axis=1`` argsorts perform independent stable sorts per row.
    """
    top = blin.top
    trials, n = top.shape
    m_values = np.unique(n_servers)
    if m_values.size != 1:
        # Mixed server counts: head/tail split points differ per row.
        return np.vstack(
            [thread_order(blin.trial(t), int(n_servers[t])) for t in range(trials)]
        )
    m = int(m_values[0])
    top_order = np.argsort(-top, axis=1, kind="stable")
    if n <= m:
        return top_order
    head = top_order[:, :m]
    tail = top_order[:, m:]
    tail_slope = np.take_along_axis(blin.slope, tail, axis=1)
    tail = np.take_along_axis(
        tail, np.argsort(-tail_slope, axis=1, kind="stable"), axis=1
    )
    return np.concatenate([head, tail], axis=1)


def algorithm2_batch_kernel(
    bp: BatchProblem,
    blin: BatchLinearization,
    ctx: "SolveContext | None" = None,
) -> BatchAssignment:
    """The raw batched greedy walk (no spans; callers time/fold as needed).

    One Python step per thread *position* instead of per thread-trial
    pair: step ``k`` pops every trial's ``k``-th ordered thread, grants
    ``min(ĉ, residual)`` on that trial's max-residual server and updates
    the residual — all as ``(trials,)`` array operations.
    """
    trials, n = bp.n_trials, bp.n_threads
    order = thread_order_batch(blin, bp.n_servers)
    servers = np.full((trials, n), -1, dtype=np.int64)
    alloc = np.zeros((trials, n), dtype=float)
    m_max = int(np.max(bp.n_servers))
    # Padding columns (trials with fewer servers) sit at -inf so the
    # argmax — over residuals that are always >= 0 — never picks them.
    residual = np.where(
        np.arange(m_max)[None, :] < bp.n_servers[:, None],
        bp.capacity[:, None],
        -np.inf,
    )
    rows = np.arange(trials)
    c_hat = blin.c_hat
    for k in range(n):
        if ctx is not None:
            ctx.count(ALG2_HEAP_OPS, 2 * trials)  # peek + decrease-key per trial
            ctx.check_deadline()
        i = order[:, k]
        j = np.argmax(residual, axis=1)
        res = residual[rows, j]
        c = np.minimum(c_hat[rows, i], res)
        servers[rows, i] = j
        alloc[rows, i] = c
        residual[rows, j] = res - c
    return BatchAssignment(servers=servers, allocations=alloc)


def algorithm2_batch(
    problem: AAProblem,
    lin: Linearization | None = None,
    ctx: "SolveContext | None" = None,
) -> Assignment:
    """Scalar-contract adapter: run the batched kernel on one instance.

    Same signature and semantics as
    :func:`~repro.core.algorithm2.algorithm2` — and the same bits in the
    result, since a one-trial batch walks the identical trajectory.
    """
    if lin is None:
        lin = linearize(problem, ctx=ctx) if ctx is None else ctx.linearization(problem)
    bp = BatchProblem(
        problem.utilities,
        n_trials=1,
        n_servers=problem.n_servers,
        capacity=problem.capacity,
    )
    blin = BatchLinearization.from_scalar(lin)
    if ctx is None:
        return algorithm2_batch_kernel(bp, blin, None).assignment(0)
    with ctx.span("alg2_batch"):
        return algorithm2_batch_kernel(bp, blin, ctx).assignment(0)


def _batch_fn(
    bp: BatchProblem,
    blin: BatchLinearization | None,
    ctx: "SolveContext | None",
    rngs: "TrialStreams",
) -> BatchAssignment:
    """The registry ``batch_fn`` contract for alg2 (deterministic: rngs unused)."""
    if blin is None:
        raise ValueError("algorithm2_batch requires a batch linearization")
    return algorithm2_batch_kernel(bp, blin, ctx)


register_solver(
    "algorithm2_batch",
    lambda problem, lin, ctx, seed: algorithm2_batch(problem, lin, ctx=ctx),
    kind="batch",
    ratio=ALPHA,
    complexity="O(n log n) per trial, vectorized over trials",
    reclaim=True,
    uses_linearization=True,
    batch_fn=_batch_fn,
    description="Array-first Algorithm 2: stacked two-key argsort + argmax walk",
)

# The scalar alg2 spec advertises this kernel as its trial-batched
# implementation; the harness consults it when routing sweep points.
attach_batch_fn("alg2", _batch_fn)
