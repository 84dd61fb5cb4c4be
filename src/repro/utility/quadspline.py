"""Concavity-guaranteed smooth interpolation through the paper's anchors.

Section VII of the paper generates each random utility by drawing ``(v, w)``
with ``w <= v``, anchoring ``f(0) = 0``, ``f(C/2) = v``, ``f(C) = v + w`` and
smoothing with Matlab's PCHIP.  PCHIP preserves monotonicity but *not*
concavity, so on unlucky draws it can violate the paper's own model
assumption.  :class:`ConcaveQuadSpline` interpolates the same three anchors
with two quadratic arcs that are provably C¹, nondecreasing and concave, and
whose derivative is piecewise linear — giving a closed-form
``inverse_derivative`` that makes water-filling exact and fast.

Construction.  With chord slopes ``s1 = v / xm`` and ``s2 = w / (cap - xm)``
(``s2 <= s1`` because ``w <= v`` and ``xm = cap/2``), choose knot derivatives

    d1 = min((s1 + s2) / 2, 2 * s2)      (interior)
    d0 = 2 * s1 - d1                     (left end)
    d2 = 2 * s2 - d1                     (right end)

Each segment with endpoint derivatives summing to twice its chord slope is a
parabola, hence exactly interpolating; the choice above yields
``d0 >= s1 >= d1 >= s2 >= d2 >= 0`` so the derivative is nonincreasing and
nonnegative everywhere — monotone + concave by construction.

:class:`PchipUtility` wraps :class:`scipy.interpolate.PchipInterpolator` over
the same anchors for side-by-side fidelity experiments with the paper's
original generator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from repro.utility.base import UtilityFunction
from repro.utils.validation import check_capacity, check_positive


def spline_derivatives(v: float, w: float, xm: float, cap: float) -> tuple[float, float, float]:
    """Knot derivatives ``(d0, d1, d2)`` of the concave quadratic spline."""
    s1 = v / xm
    s2 = w / (cap - xm)
    d1 = min(0.5 * (s1 + s2), 2.0 * s2)
    d0 = 2.0 * s1 - d1
    d2 = 2.0 * s2 - d1
    return d0, d1, d2


class ConcaveQuadSpline(UtilityFunction):
    """C¹ concave interpolant of ``(0,0), (xm,v), (cap,v+w)`` (``w <= v·(cap-xm)/xm``).

    Parameters
    ----------
    v, w:
        Anchor increments: ``f(xm) = v`` and ``f(cap) = v + w``.
    cap:
        Domain upper bound (the server capacity ``C``).
    xm:
        Interior anchor position; the paper uses ``cap / 2`` (default).
    """

    def __init__(self, v: float, w: float, cap: float, xm: float | None = None):
        super().__init__(check_positive("cap", cap))
        xm = 0.5 * self.cap if xm is None else float(xm)
        if not 0.0 < xm < self.cap:
            raise ValueError(f"xm must lie strictly inside (0, cap), got {xm!r}")
        v = check_capacity("v", v)
        w = check_capacity("w", w)
        s1 = v / xm
        s2 = w / (self.cap - xm)
        if s2 > s1 + 1e-12 * (s1 + 1.0):
            raise ValueError(
                "anchors are not concave: second chord slope exceeds the first "
                f"(s1={s1!r}, s2={s2!r}); require w/(cap-xm) <= v/xm"
            )
        self.v, self.w, self.xm = v, w, xm
        self.d0, self.d1, self.d2 = spline_derivatives(v, w, xm, self.cap)
        if not all(map(math.isfinite, (self.d0, self.d1, self.d2))):
            raise ValueError(
                "spline knot slopes must be finite (v or w too large for the cap): "
                f"d0={self.d0!r}, d1={self.d1!r}, d2={self.d2!r}"
            )

    def value(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.cap)
        h1, h2 = self.xm, self.cap - self.xm
        t1 = np.minimum(x, self.xm)
        t2 = np.maximum(x - self.xm, 0.0)
        seg1 = self.d0 * t1 + (self.d1 - self.d0) * t1 * t1 / (2.0 * h1)
        seg2 = self.d1 * t2 + (self.d2 - self.d1) * t2 * t2 / (2.0 * h2)
        out = seg1 + seg2
        return out if out.ndim else float(out)

    def derivative(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.cap)
        h1, h2 = self.xm, self.cap - self.xm
        left = self.d0 + (self.d1 - self.d0) * x / h1
        right = self.d1 + (self.d2 - self.d1) * (x - self.xm) / h2
        out = np.where(x <= self.xm, left, right)
        return out if out.ndim else float(out)

    def inverse_derivative(self, lam: float) -> float:
        lam = float(lam)
        if lam <= self.d2:
            return self.cap
        if lam > self.d0:
            return 0.0
        if lam > self.d1:
            # Inside segment 1 (d0 >= lam > d1 implies d0 > d1 strictly).
            return self.xm * (self.d0 - lam) / (self.d0 - self.d1)
        # d1 >= lam > d2 implies d1 > d2 strictly.
        h2 = self.cap - self.xm
        return self.xm + h2 * (self.d1 - lam) / (self.d1 - self.d2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConcaveQuadSpline(v={self.v!r}, w={self.w!r}, "
            f"cap={self.cap!r}, xm={self.xm!r})"
        )


class PchipUtility(UtilityFunction):
    """Monotone PCHIP interpolant of nondecreasing anchors — the paper's generator.

    Matlab-faithful but only *monotonicity*-preserving; ``validate()`` may
    reject it on anchor sets where the cubic overshoots concavity.  Use
    :class:`ConcaveQuadSpline` when the model assumptions must hold exactly.
    """

    def __init__(self, xs, ys, cap: float | None = None):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need at least two 1-D anchor arrays of equal length")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("anchor positions must strictly increase")
        if np.any(np.diff(ys) < 0) or ys[0] < 0:
            raise ValueError("anchor values must be nonnegative and nondecreasing")
        super().__init__(cap if cap is not None else float(xs[-1]))
        if self.cap < xs[-1]:
            raise ValueError("cap must be at least the last anchor position")
        self._interp = PchipInterpolator(xs, ys, extrapolate=False)
        self._deriv = self._interp.derivative()
        self._x_last = float(xs[-1])
        self._y_last = float(ys[-1])

    @classmethod
    def from_paper_anchors(cls, v: float, w: float, cap: float) -> "PchipUtility":
        """The exact Section VII construction: anchors ``(0,0),(C/2,v),(C,v+w)``."""
        if w > v:
            raise ValueError(f"the paper draws (v, w) conditioned on w <= v, got v={v!r} < w={w!r}")
        return cls([0.0, 0.5 * cap, cap], [0.0, v, v + w], cap=cap)

    def value(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.cap)
        out = np.where(x >= self._x_last, self._y_last, self._interp(np.minimum(x, self._x_last)))
        return out if out.ndim else float(out)

    def derivative(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.cap)
        out = np.where(
            x >= self._x_last, 0.0, np.maximum(self._deriv(np.minimum(x, self._x_last)), 0.0)
        )
        return out if out.ndim else float(out)
