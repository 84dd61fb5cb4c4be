"""Trial-batched problem representation: the array-first solve pipeline.

The Section VII harness evaluates hundreds of independent random instances
per sweep point.  Solving them one at a time leaves the whole pipeline at
Python-loop speed — every trial pays its own water-fill loop, sort calls
and bookkeeping.  This module stores a *sweep point* as struct-of-arrays
instead: a :class:`BatchProblem` stacks all trials' utilities into one
flat trial-major :class:`~repro.utility.batch.UtilityBatch` plus per-trial
``(m, C)`` arrays, and the vectorized kernels
(:func:`linearize_batch`, the batched Algorithm 2 in
:mod:`repro.core.algorithm2_batch`, :func:`reclaim_batch`) advance every
trial in lock-step with O(1) Python overhead per price-search/greedy step.

The oracle-equivalence contract
-------------------------------
The scalar pipeline (``linearize`` → ``algorithm2`` → ``reclaim``) remains
the semantic ground truth.  Every batched kernel is **bit-identical** to
its scalar counterpart run per trial — not approximately equal: same
floats, same assignments, same tie-breaks.  The contract rests on a few
invariants that hold for C-contiguous trial-major layouts:

* ``np.sum(A, axis=1)`` equals per-row ``np.sum(A[t])`` exactly (both use
  the same pairwise reduction over a contiguous row), and a group's
  ``np.bincount`` sum does not depend on the other groups;
* the one masked lock-step water-fill kernel advances each pool's
  bracket only on the passes its own loop would have taken, with trial
  rows as pools for ``linearize_batch`` and server groups for
  ``reclaim_batch``;
* ``np.argsort(..., axis=1, kind="stable")`` equals row-wise 1-D stable
  argsorts, and first-occurrence ``np.argmax`` over residuals matches the
  scalar walk's smallest-index tie-break.

``tests/core/test_batch_equivalence.py`` property-tests this contract
across all four workload generators.  Counters recorded through a
:class:`~repro.engine.SolveContext` are *per-trial-equivalent*: batched
runs report exactly the totals the scalar loop would have, so parallel
counter-merge invariants survive the representation change.  The batched
kernels record no spans; a context with telemetry attached runs the
scalar loop instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.allocation.waterfill import _fill, water_fill_batch
from repro.core.linearize import Linearization
from repro.core.problem import FEASIBILITY_RTOL, AAProblem, Assignment
from repro.observability import (
    BATCH_EVALUATIONS,
    GROUPED_BISECTION_ITERATIONS,
    LINEARIZE_CALLS,
    RECLAIM_CALLS,
)
from repro.utility.batch import UtilityBatch, concat_batches
from repro.utils.validation import check_integral

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import SolveContext


class BatchProblem:
    """``trials`` independent AA instances in one struct-of-arrays object.

    Layout: one flat trial-major utility batch of ``trials * n`` threads
    (trial ``t`` owns threads ``t*n … (t+1)*n - 1``) plus per-trial server
    counts and capacities.  All trials must have the same thread count
    ``n`` — the rectangular ``(trials, n)`` shape is what makes the
    vectorized kernels' row reductions bit-identical to scalar runs.

    Parameters
    ----------
    utilities:
        Flat :class:`~repro.utility.batch.UtilityBatch` of
        ``trials * n_threads`` utilities, trial-major.
    n_trials:
        Number of stacked instances.
    n_servers:
        Scalar or ``(trials,)`` array of per-trial server counts.
    capacity:
        Scalar or ``(trials,)`` array of per-trial server capacities.
    """

    def __init__(self, utilities: UtilityBatch, n_trials: int, n_servers, capacity):
        if not isinstance(utilities, UtilityBatch):
            raise TypeError("utilities must be a UtilityBatch")
        self.utilities = utilities
        self.n_trials = check_integral("n_trials", n_trials, minimum=1)
        total = len(utilities)
        if total % self.n_trials:
            raise ValueError(
                f"{total} threads do not split into {self.n_trials} equal trials"
            )
        self.n_threads = total // self.n_trials
        self.n_servers = np.broadcast_to(
            np.asarray(n_servers, dtype=np.int64), (self.n_trials,)
        ).copy()
        self.capacity = np.broadcast_to(
            np.asarray(capacity, dtype=float), (self.n_trials,)
        ).copy()
        if np.any(self.n_servers < 1):
            raise ValueError("every trial needs at least one server")
        if np.any(self.capacity <= 0) or not np.all(np.isfinite(self.capacity)):
            raise ValueError("server capacities must be positive and finite")
        caps = utilities.caps.reshape(self.n_trials, self.n_threads)
        if np.any(caps > self.capacity[:, None] * (1 + FEASIBILITY_RTOL)):
            raise ValueError(
                "every utility cap must be at most its trial's server capacity"
            )

    @property
    def pools(self) -> np.ndarray:
        """Per-trial super-optimal budgets ``m_t * C_t``, shape ``(trials,)``."""
        return self.n_servers * self.capacity

    def trial_slice(self, t: int) -> slice:
        """The flat-thread slice owned by trial ``t``."""
        return slice(t * self.n_threads, (t + 1) * self.n_threads)

    def problem(self, t: int) -> AAProblem:
        """Materialize trial ``t`` as a scalar :class:`AAProblem`."""
        idx = np.arange(t * self.n_threads, (t + 1) * self.n_threads)
        return AAProblem(
            self.utilities.subset(idx),
            n_servers=int(self.n_servers[t]),
            capacity=float(self.capacity[t]),
        )

    @classmethod
    def from_problems(cls, problems: Sequence[AAProblem]) -> "BatchProblem":
        """Stack scalar instances (equal thread counts) into one batch."""
        problems = list(problems)
        if not problems:
            raise ValueError("need at least one problem")
        n = problems[0].n_threads
        if any(p.n_threads != n for p in problems):
            raise ValueError("all stacked problems must have equal thread counts")
        return cls(
            concat_batches([p.utilities for p in problems]),
            n_trials=len(problems),
            n_servers=np.array([p.n_servers for p in problems], dtype=np.int64),
            capacity=np.array([p.capacity for p in problems], dtype=float),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchProblem(n_trials={self.n_trials}, n_threads={self.n_threads}, "
            f"family={type(self.utilities).__name__})"
        )


@dataclass(frozen=True)
class BatchLinearization:
    """Per-trial super-optimal allocations and Eq. 1 linearizations.

    Each field stacks the scalar :class:`~repro.core.linearize.Linearization`
    field of every trial: ``(trials, n)`` arrays, ``(trials,)`` scalars.
    Row ``t`` is bit-identical to ``linearize(bp.problem(t))``.
    """

    c_hat: np.ndarray
    top: np.ndarray
    slope: np.ndarray
    super_optimal_utility: np.ndarray
    price: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.c_hat.shape[0]

    def trial(self, t: int) -> Linearization:
        """Trial ``t``'s scalar linearization (row views, no copies)."""
        return Linearization(
            c_hat=self.c_hat[t],
            top=self.top[t],
            slope=self.slope[t],
            super_optimal_utility=float(self.super_optimal_utility[t]),
            price=float(self.price[t]),
        )

    @classmethod
    def from_scalar(cls, lin: Linearization) -> "BatchLinearization":
        """Wrap one scalar linearization as a 1-trial batch (views)."""
        return cls(
            c_hat=lin.c_hat.reshape(1, -1),
            top=lin.top.reshape(1, -1),
            slope=lin.slope.reshape(1, -1),
            super_optimal_utility=np.array([lin.super_optimal_utility]),
            price=np.array([lin.price]),
        )


@dataclass(frozen=True)
class BatchAssignment:
    """Per-trial assignments: ``(trials, n)`` server indices and grants."""

    servers: np.ndarray
    allocations: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.servers.shape[0]

    def assignment(self, t: int) -> Assignment:
        """Trial ``t``'s scalar :class:`Assignment` (copies, validated)."""
        return Assignment(
            servers=self.servers[t].copy(), allocations=self.allocations[t].copy()
        )

    def total_utilities(self, bp: BatchProblem) -> np.ndarray:
        """Per-trial total utilities, bit-identical to scalar row sums."""
        values = bp.utilities.value(self.allocations.reshape(-1))
        return np.sum(values.reshape(bp.n_trials, bp.n_threads), axis=1)


def linearize_batch(
    bp: BatchProblem, ctx: "SolveContext | None" = None
) -> BatchLinearization:
    """Vectorized Lemma V.2 precomputation for every trial at once.

    Water-fills each trial's ``m_t * C_t`` pool through
    :func:`~repro.allocation.waterfill.water_fill_batch`, then builds the
    ramp parameters elementwise.  Counter accounting matches ``trials``
    scalar :func:`~repro.core.linearize.linearize` calls exactly.
    """
    if ctx is not None:
        ctx.count(LINEARIZE_CALLS, bp.n_trials)
    result = water_fill_batch(bp.utilities, bp.n_trials, bp.pools, ctx=ctx)
    c_hat = result.allocations
    top = bp.utilities.value(c_hat.reshape(-1)).reshape(bp.n_trials, bp.n_threads)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(c_hat > 0.0, top / np.where(c_hat > 0.0, c_hat, 1.0), 0.0)
    return BatchLinearization(
        c_hat=c_hat,
        top=top,
        slope=slope,
        super_optimal_utility=np.sum(top, axis=1),
        price=result.marginal_price,
    )


def reclaim_batch(
    bp: BatchProblem,
    assignment: BatchAssignment,
    ctx: "SolveContext | None" = None,
    *,
    rel_tol: float = 1e-12,
    start: np.ndarray | None = None,
) -> BatchAssignment:
    """Per-server water-fill reclamation for every trial in lock-step.

    Mirrors :func:`repro.core.postprocess.reclaim` per trial: each trial's
    server pools are groups of one lock-step water-fill, bit-identical to
    one ``water_fill_grouped`` call per trial (see the module docstring).
    Counter totals (``RECLAIM_CALLS``, ``BATCH_EVALUATIONS``,
    ``GROUPED_BISECTION_ITERATIONS``) are summed per-trial equivalents.

    ``rel_tol`` is the per-group price tolerance (the default matches
    the scalar reclaim pass; the price-discovery solver relaxes it — its
    refill stage is a wall-clock hot spot at n = 10⁵⁺).  ``start``, shape
    ``(trials,)``, seeds the price search of every server of trial ``t``
    at ``start[t]`` instead of 1 — bit-identical to ``water_fill_grouped``
    per trial with ``start=np.full(m_t, start[t])``, and so to the scalar
    :func:`~repro.core.postprocess.reclaim` with ``start=start[t]``.  The
    sweep harness and price discovery pass each trial's clearing price
    ``λ*`` (``BatchLinearization.price``), as every scalar caller holding a
    linearization does; a start that is not positive and finite (a slack
    pool's 0) falls back to 1.
    """
    T, n = bp.n_trials, bp.n_threads
    if ctx is not None:
        ctx.count(RECLAIM_CALLS, T)
    if n == 0:  # as water_fill_grouped: no threads, no fill, no evaluations
        return BatchAssignment(servers=assignment.servers, allocations=np.zeros((T, 0)))
    # Global group ids: trial t's server j becomes group offsets[t] + j.
    m = bp.n_servers
    offsets = np.concatenate(([0], np.cumsum(m)))[:-1]
    groups = (offsets[:, None] + assignment.servers).reshape(-1)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (T,):
            raise ValueError(f"start must have shape ({T},)")
        start = np.repeat(start, m)
    alloc, _, _, d, b = _fill(
        bp.utilities, np.repeat(bp.capacity, m), groups, rel_tol, 200, ctx, start=start
    )
    if ctx is not None:
        # Each trial counts as its own grouped call over its m_t pools.
        doublings = np.maximum.reduceat(d, offsets)
        steps = np.maximum.reduceat(b, offsets)
        ctx.count(BATCH_EVALUATIONS, int(np.sum(doublings + 1 + steps)))
        ctx.count(GROUPED_BISECTION_ITERATIONS, int(np.sum(doublings + steps)))
    return BatchAssignment(
        servers=assignment.servers, allocations=alloc.reshape(T, n)
    )
