"""Super-optimal allocation (Definition V.1) and linearization (Equation 1).

The super-optimal allocation relaxes AA to a single pool of ``m * C``
resource; its utility ``F̂`` upper-bounds the AA optimum ``F*``
(Lemma V.2) and, because the utilities are nondecreasing, saturates the
pool when possible (Lemma V.3).

The linearized problem replaces every ``f_i`` with

    g_i(x) = f_i(ĉ_i) * x / ĉ_i   for x <= ĉ_i,
             f_i(ĉ_i)             for x >  ĉ_i,

a ramp-then-flat minorant of ``f_i`` (Lemma V.4) that agrees with it at the
super-optimal point.  Both approximation algorithms operate purely on the
three arrays stored here: ``c_hat``, ``top = f(ĉ)`` and ``slope = top/ĉ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.allocation.waterfill import water_fill
from repro.core.problem import AAProblem
from repro.observability import LINEARIZE_CALLS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import SolveContext


@dataclass(frozen=True)
class Linearization:
    """Precomputed super-optimal allocation and linearized utilities.

    Attributes
    ----------
    c_hat:
        Super-optimal per-thread allocations ``ĉ`` (sum ≈ min(mC, Σcaps)).
    top:
        ``f_i(ĉ_i)`` — each thread's utility at its super-optimal grant.
    slope:
        ``top / ĉ`` (0 where ``ĉ = 0``): the ramp slope of ``g_i``.
    super_optimal_utility:
        ``F̂ = Σ top`` — the upper bound on the AA optimum.
    price:
        ``λ*``, the marginal price that clears the ``mC`` pool: the fill's
        ``marginal_price`` (0 when the pool is slack).
    """

    c_hat: np.ndarray
    top: np.ndarray
    slope: np.ndarray
    super_optimal_utility: float
    price: float

    def g_value(self, i: "np.ndarray | int", x: "np.ndarray | float") -> "np.ndarray | float":
        """Linearized utility ``g_i(x)``, elementwise over arrays ``i``/``x``."""
        i = np.asarray(i, dtype=np.int64)
        x = np.asarray(x, dtype=float)
        ramp = self.slope[i] * np.minimum(x, self.c_hat[i])
        out = np.minimum(ramp, self.top[i])
        # Threads with ĉ = 0 are flat at their top from x = 0 onwards.
        out = np.where(self.c_hat[i] == 0.0, self.top[i], out)
        return out if out.ndim else float(out)

    def g_total(self, x: np.ndarray) -> float:
        """Total linearized utility of an allocation vector."""
        idx = np.arange(self.c_hat.shape[0])
        return float(np.sum(self.g_value(idx, x)))


def linearize(
    problem: AAProblem, ctx: "SolveContext | None" = None
) -> Linearization:
    """Compute ĉ by water-filling the ``mC`` pool, then build ``g``.

    The water-filling respects each thread's domain cap, so ``ĉ_i <= C``
    always holds — required for Lemma V.5's accounting (a thread must be
    servable by a single empty server).

    ``ctx`` is an optional :class:`~repro.engine.context.SolveContext`;
    when given, the call is counted and timed and the inner water-fill's
    price-search steps are recorded.  Prefer resolving linearizations
    through :meth:`SolveContext.linearization` (or a shared
    :class:`~repro.engine.cache.LinearizationCache`) when several solvers
    run on the same instance.
    """
    if ctx is None:
        return _linearize(problem, None)
    ctx.count(LINEARIZE_CALLS)
    with ctx.span("linearize"):
        return _linearize(problem, ctx)


def _linearize(problem: AAProblem, ctx: "SolveContext | None") -> Linearization:
    batch = problem.utilities
    result = water_fill(batch, problem.pool, ctx=ctx)
    c_hat = np.asarray(result.allocations, dtype=float)
    top = np.asarray(batch.value(c_hat), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(c_hat > 0.0, top / np.where(c_hat > 0.0, c_hat, 1.0), 0.0)
    return Linearization(
        c_hat=c_hat,
        top=top,
        slope=slope,
        super_optimal_utility=float(np.sum(top)),
        price=result.marginal_price,
    )
