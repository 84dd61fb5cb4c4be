"""Grouped water-filling: many independent pools, one vectorized price search.

The reclamation pass, every two-step baseline and the online scheduler all
need "optimally split each server's capacity among its own threads".
This module runs *all* servers' price searches in lock-step as the group
layout of the water-fill kernel in :mod:`repro.allocation.waterfill`,
pricing thread ``i`` at ``lam[group[i]]`` and summing demand per group
with ``np.bincount``.  Per group this agrees with ``water_fill`` only to
rounding (``bincount`` sums in thread order, ``water_fill`` pairwise; the
tests compare at ``rel=1e-6``).  The exact contracts are per layout: rows
(``water_fill_batch``) are bit-identical to scalar ``water_fill``, and
groups (:func:`repro.core.batch.reclaim_batch`) to this function per trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocation.waterfill import _fill
from repro.observability import BATCH_EVALUATIONS, GROUPED_BISECTION_ITERATIONS
from repro.utility.batch import as_batch


@dataclass(frozen=True)
class GroupedAllocationResult:
    """Per-thread allocations plus per-group accounting."""

    allocations: np.ndarray
    total_utility: float
    group_utilities: np.ndarray
    iterations: int


def water_fill_grouped(
    utilities,
    groups,
    budgets,
    *,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
    ctx=None,
    start=None,
) -> GroupedAllocationResult:
    """Optimally divide ``budgets[g]`` among the threads with ``groups[i] == g``.

    Parameters
    ----------
    utilities:
        Batch (or sequence) of concave utilities, one per thread.
    groups:
        Integer array of shape ``(n,)`` with values in ``[0, k)`` mapping
        each thread to its pool (server).
    budgets:
        Per-group budgets, shape ``(k,)``.  Groups with no threads simply
        leave their budget unused.
    start:
        Optional per-group starting prices, shape ``(k,)``, for the price
        search (default 1 for every group).  A start near a group's
        clearing price saves passes, e.g. the group's last price before
        one thread joined or left.  It only seeds the bracket, which is
        verified by evaluation, so any start gives the same prices to
        tolerance; entries that are not positive and finite fall back to 1.
    """
    batch = as_batch(utilities)
    n = len(batch)
    groups = np.asarray(groups, dtype=np.int64)
    budgets = np.asarray(budgets, dtype=float)
    if groups.shape != (n,):
        raise ValueError("groups must assign one pool per thread")
    if budgets.ndim != 1:
        raise ValueError("budgets must be 1-D")
    k = budgets.shape[0]
    if n and (groups.min() < 0 or groups.max() >= k):
        raise ValueError("group indices out of range")
    if np.any(budgets < 0) or not np.all(np.isfinite(budgets)):
        raise ValueError("budgets must be finite and nonnegative")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (k,):
            raise ValueError(f"start must have shape ({k},)")
    if n == 0:
        return GroupedAllocationResult(np.zeros(0), 0.0, np.zeros(k), 0)

    alloc, _, _, d, b = _fill(batch, budgets, groups, rel_tol, max_iter, ctx, start=start)
    # The opening pass, every bracket pass and every regula falsi pass.
    doublings, steps = int(d.max()), int(b.max())
    if ctx is not None:
        ctx.count(BATCH_EVALUATIONS, doublings + 1 + steps)
        ctx.count(GROUPED_BISECTION_ITERATIONS, doublings + steps)
    values = np.asarray(batch.value(alloc), dtype=float)
    group_utilities = np.bincount(groups, weights=values, minlength=k)
    return GroupedAllocationResult(
        allocations=alloc,
        total_utility=float(values.sum()),
        group_utilities=group_utilities,
        iterations=doublings + steps,
    )
