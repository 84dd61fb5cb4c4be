"""Vectorized struct-of-arrays utility families.

The experiment harness evaluates thousands of random instances, each with
hundreds of threads.  Holding one Python object per thread and calling
scalar methods in a loop would dominate the runtime (see the HPC guidance:
vectorize the hot loop, not the wrapper).  A :class:`UtilityBatch` stores the
parameters of ``n`` utilities in parallel numpy arrays and evaluates
``value`` / ``derivative`` / ``inverse_derivative`` for *all* threads at
once, so the water-filling bisection costs O(n) numpy work per step.

:class:`GenericBatch` adapts any list of scalar
:class:`~repro.utility.base.UtilityFunction` objects to the batch interface
(at Python-loop speed) so mixed or exotic utilities still work everywhere.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.utility.base import UtilityFunction
from repro.utility.functions import PiecewiseLinearUtility, PowerUtility
from repro.utility.quadspline import ConcaveQuadSpline


class UtilityBatch(abc.ABC):
    """``n`` concave utilities evaluated elementwise on length-``n`` arrays."""

    #: Per-thread domain upper bounds, shape ``(n,)``.
    caps: np.ndarray

    #: Whether this family's ``value`` / ``derivative`` /
    #: ``inverse_derivative_each`` run as real array kernels (``True`` for
    #: the array-parameterized families) or fall back to a Python loop over
    #: scalar utilities (``False``, e.g. :class:`GenericBatch`).  The
    #: experiment harness consults this flag to route whole sweep points
    #: through the trial-batched backend: batching a loop-backed family
    #: would still be correct but would hide an O(n) Python loop inside
    #: every "vectorized" step, so such families stay on the scalar path.
    supports_vectorized: bool = True

    def __len__(self) -> int:
        return self.caps.shape[0]

    @abc.abstractmethod
    def value(self, c: np.ndarray) -> np.ndarray:
        """``out[i] = f_i(c[i])`` for ``c`` of shape ``(n,)``."""

    @abc.abstractmethod
    def derivative(self, c: np.ndarray) -> np.ndarray:
        """Elementwise nonincreasing supergradient."""

    @abc.abstractmethod
    def inverse_derivative(self, lam: float) -> np.ndarray:
        """``out[i]`` = largest ``x <= caps[i]`` with ``f_i'(x) >= lam``."""

    def inverse_derivative_each(self, lam: np.ndarray) -> np.ndarray:
        """Per-thread prices: ``out[i]`` = demand of thread ``i`` at ``lam[i]``.

        Powers the *grouped* water-filling (one bisection per server, all
        servers in lock-step).  The default materializes scalar functions;
        the array-parameterized batches override with closed forms.
        """
        lam = np.asarray(lam, dtype=float)
        return np.array(
            [f.inverse_derivative(l) for f, l in zip(self.functions(), lam)],
            dtype=float,
        )

    @abc.abstractmethod
    def subset(self, idx) -> "UtilityBatch":
        """Batch restricted to the threads selected by ``idx`` (index array)."""

    def functions(self) -> list[UtilityFunction]:
        """Materialize scalar utility objects (for interop and display)."""
        raise NotImplementedError(f"{type(self).__name__} cannot materialize scalars")

    def total(self, c: np.ndarray) -> float:
        """Total utility ``sum_i f_i(c[i])`` of an allocation vector."""
        return float(np.sum(self.value(np.asarray(c, dtype=float))))


def _as_caps(cap, n: int) -> np.ndarray:
    caps = np.broadcast_to(np.asarray(cap, dtype=float), (n,)).copy()
    if np.any(caps < 0) or not np.all(np.isfinite(caps)):
        raise ValueError("caps must be finite and nonnegative")
    return caps


class QuadSplineBatch(UtilityBatch):
    """Vectorized :class:`ConcaveQuadSpline` family — the paper's workload type.

    Parameters are arrays ``v, w`` (anchor increments, ``w <= v``) plus a
    scalar or array ``cap``; the interior anchor sits at ``cap / 2`` exactly
    as in Section VII.
    """

    def __init__(self, v, w, cap):
        self.v = np.asarray(v, dtype=float)
        self.w = np.asarray(w, dtype=float)
        if self.v.ndim != 1 or self.v.shape != self.w.shape:
            raise ValueError("v and w must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.w))):
            raise ValueError("anchor increments must be finite")
        if np.any(self.v < 0) or np.any(self.w < 0):
            raise ValueError("anchor increments must be nonnegative")
        if np.any(self.w > self.v * (1 + 1e-12) + 1e-12):
            raise ValueError("require w <= v elementwise (concave anchors)")
        self.caps = _as_caps(cap, self.v.shape[0])
        if np.any(self.caps <= 0):
            raise ValueError("spline caps must be strictly positive")
        self.xm = 0.5 * self.caps
        s1 = self.v / self.xm
        s2 = self.w / (self.caps - self.xm)
        self.d1 = np.minimum(0.5 * (s1 + s2), 2.0 * s2)
        self.d0 = 2.0 * s1 - self.d1
        self.d2 = 2.0 * s2 - self.d1
        # Demand-path precomputation: the water-filling bisection calls
        # _demand dozens of times per solve with only lam changing, so the
        # lam-independent pieces are hoisted here.
        self._h2 = self.caps - self.xm
        self._den1 = self.d0 - self.d1
        self._den2 = self.d1 - self.d2
        self._flat01 = self.d0 <= self.d1  # first segment has no slope range
        self._flat12 = self.d1 <= self.d2  # second segment has no slope range
        self._xm_flat12 = self.xm[self._flat12]

    def value(self, c: np.ndarray) -> np.ndarray:
        c = np.clip(np.asarray(c, dtype=float), 0.0, self.caps)
        h1 = self.xm
        h2 = self.caps - self.xm
        t1 = np.minimum(c, self.xm)
        t2 = np.maximum(c - self.xm, 0.0)
        seg1 = self.d0 * t1 + (self.d1 - self.d0) * t1 * t1 / (2.0 * h1)
        seg2 = self.d1 * t2 + (self.d2 - self.d1) * t2 * t2 / (2.0 * h2)
        return seg1 + seg2

    def derivative(self, c: np.ndarray) -> np.ndarray:
        c = np.clip(np.asarray(c, dtype=float), 0.0, self.caps)
        left = self.d0 + (self.d1 - self.d0) * c / self.xm
        right = self.d1 + (self.d2 - self.d1) * (c - self.xm) / (self.caps - self.xm)
        return np.where(c <= self.xm, left, right)

    def _demand(self, lam) -> np.ndarray:
        """Closed-form demand; ``lam`` may be scalar or per-thread array.

        Hot path of every water-filling bisection step: written with
        in-place updates on freshly allocated temporaries (the elementwise
        arithmetic is the historical ``xm*(d0-lam)/(d0-d1)`` /
        ``xm + h2*(d1-lam)/(d1-d2)`` formulas, reassociated only by
        commutativity — results are bit-identical).
        """
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            x1 = np.subtract(self.d0, lam)
            x1 *= self.xm
            x1 /= self._den1
            x2 = np.subtract(self.d1, lam)
            x2 *= self._h2
            x2 /= self._den2
            x2 += self.xm
        # Flat segments divide by zero above; their selected values are the
        # segment endpoints, patched in place of the historical np.where.
        x1[self._flat01] = 0.0
        x2[self._flat12] = self._xm_flat12
        out = np.where(lam > self.d1, x1, x2)
        out[np.greater(lam, self.d0)] = 0.0
        saturated = np.less_equal(lam, self.d2)
        out[saturated] = self.caps[saturated]
        return np.clip(out, 0.0, self.caps, out=out)

    def inverse_derivative(self, lam: float) -> np.ndarray:
        return self._demand(float(lam))

    def inverse_derivative_each(self, lam: np.ndarray) -> np.ndarray:
        return self._demand(lam)

    def subset(self, idx) -> "QuadSplineBatch":
        return QuadSplineBatch(self.v[idx], self.w[idx], self.caps[idx])

    def functions(self) -> list[ConcaveQuadSpline]:
        return [
            ConcaveQuadSpline(v, w, cap)
            for v, w, cap in zip(self.v, self.w, self.caps)
        ]


class PowerBatch(UtilityBatch):
    """Vectorized ``coeff * x**beta`` family, ``beta in (0, 1]``."""

    def __init__(self, coeff, beta, cap):
        self.coeff = np.asarray(coeff, dtype=float)
        self.beta = np.broadcast_to(np.asarray(beta, dtype=float), self.coeff.shape).copy()
        if self.coeff.ndim != 1:
            raise ValueError("coeff must be a 1-D array")
        if np.any(self.coeff <= 0):
            raise ValueError("coeff must be strictly positive")
        if np.any((self.beta <= 0) | (self.beta > 1)):
            raise ValueError("beta must lie in (0, 1]")
        self.caps = _as_caps(cap, self.coeff.shape[0])

    def value(self, c: np.ndarray) -> np.ndarray:
        c = np.clip(np.asarray(c, dtype=float), 0.0, self.caps)
        return self.coeff * np.power(c, self.beta)

    def derivative(self, c: np.ndarray) -> np.ndarray:
        c = np.clip(np.asarray(c, dtype=float), 0.0, self.caps)
        linear = self.beta == 1.0
        with np.errstate(divide="ignore"):
            d = self.coeff * self.beta * np.power(c, self.beta - 1.0)
        d = np.where((c == 0.0) & ~linear, np.inf, d)
        return np.where(linear, self.coeff, d)

    def _demand(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        linear = self.beta == 1.0
        safe_lam = np.where(lam > 0, lam, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            x = np.power(self.coeff * self.beta / safe_lam,
                         1.0 / np.where(linear, 1.0, 1.0 - self.beta))
        x = np.where(linear, np.where(self.coeff >= lam, self.caps, 0.0), x)
        x = np.where(lam <= 0, self.caps, x)
        return np.minimum(x, self.caps)

    def inverse_derivative(self, lam: float) -> np.ndarray:
        return self._demand(float(lam))

    def inverse_derivative_each(self, lam: np.ndarray) -> np.ndarray:
        return self._demand(lam)

    def subset(self, idx) -> "PowerBatch":
        return PowerBatch(self.coeff[idx], self.beta[idx], self.caps[idx])

    def functions(self) -> list[PowerUtility]:
        return [
            PowerUtility(c, b, cap)
            for c, b, cap in zip(self.coeff, self.beta, self.caps)
        ]


class SharedGridPWLBatch(UtilityBatch):
    """``n`` concave piecewise-linear utilities over one shared knot grid.

    The cache substrate produces a miss-ratio-derived utility per thread, all
    sampled on the same allocation grid (e.g. cache ways); storing them as a
    ``(n, k+1)`` value matrix keeps the whole pipeline vectorized.
    """

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.size < 2 or self.xs[0] != 0.0:
            raise ValueError("xs must be a 1-D grid starting at 0 with >= 2 knots")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("grid positions must strictly increase")
        if self.ys.ndim != 2 or self.ys.shape[1] != self.xs.size:
            raise ValueError("ys must have shape (n, len(xs))")
        widths = np.diff(self.xs)
        self.slopes = np.diff(self.ys, axis=1) / widths
        if np.any(self.ys[:, 0] < 0) or np.any(self.slopes < -1e-9):
            raise ValueError("utilities must be nonnegative and nondecreasing")
        if np.any(np.diff(self.slopes, axis=1) > 1e-9 * (1.0 + np.abs(self.slopes[:, :-1]))):
            raise ValueError("segment slopes must be nonincreasing (concavity)")
        self.slopes = np.maximum(self.slopes, 0.0)
        self.caps = np.full(self.ys.shape[0], float(self.xs[-1]))

    def value(self, c: np.ndarray) -> np.ndarray:
        c = np.clip(np.asarray(c, dtype=float), 0.0, self.caps)
        idx = np.clip(np.searchsorted(self.xs, c, side="right") - 1, 0, self.xs.size - 2)
        rows = np.arange(self.ys.shape[0])
        return self.ys[rows, idx] + self.slopes[rows, idx] * (c - self.xs[idx])

    def derivative(self, c: np.ndarray) -> np.ndarray:
        c = np.clip(np.asarray(c, dtype=float), 0.0, self.caps)
        idx = np.clip(np.searchsorted(self.xs, c, side="right") - 1, 0, self.xs.size - 2)
        rows = np.arange(self.ys.shape[0])
        return np.where(c >= self.caps, 0.0, self.slopes[rows, idx])

    def inverse_derivative(self, lam: float) -> np.ndarray:
        if lam <= 0:
            return self.caps.copy()
        # Row slopes are nonincreasing, so the count of slopes >= lam indexes
        # the last grid point still worth buying at price lam.
        count = np.sum(self.slopes >= lam, axis=1)
        return self.xs[count]

    def inverse_derivative_each(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        count = np.sum(self.slopes >= lam[:, None], axis=1)
        return np.where(lam <= 0, self.caps, self.xs[count])

    def subset(self, idx) -> "SharedGridPWLBatch":
        return SharedGridPWLBatch(self.xs, self.ys[idx])

    def functions(self) -> list[PiecewiseLinearUtility]:
        return [PiecewiseLinearUtility(self.xs, row) for row in self.ys]


class GenericBatch(UtilityBatch):
    """Adapter exposing a list of scalar utilities through the batch API.

    Runs at Python-loop speed; use a specialized batch for large sweeps.
    ``supports_vectorized`` is ``False``: every batch-API call here loops
    over the wrapped scalar functions, so callers that pick between the
    scalar and trial-batched pipelines (the experiment harness) treat
    instances of this class as *not* batchable rather than silently
    looping inside an ostensibly vectorized path.
    """

    supports_vectorized = False

    def __init__(self, functions: Sequence[UtilityFunction]):
        self._fns = list(functions)
        for i, f in enumerate(self._fns):
            if not isinstance(f, UtilityFunction):
                raise TypeError(f"element {i} is not a UtilityFunction: {f!r}")
        self.caps = np.array([f.cap for f in self._fns], dtype=float)

    def value(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        return np.array([f.value(ci) for f, ci in zip(self._fns, c)], dtype=float)

    def derivative(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        return np.array([f.derivative(ci) for f, ci in zip(self._fns, c)], dtype=float)

    def inverse_derivative(self, lam: float) -> np.ndarray:
        return np.array([f.inverse_derivative(lam) for f in self._fns], dtype=float)

    def subset(self, idx) -> "GenericBatch":
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.nonzero(idx)[0]
        return GenericBatch([self._fns[int(i)] for i in idx])

    def functions(self) -> list[UtilityFunction]:
        return list(self._fns)


def as_batch(utilities) -> UtilityBatch:
    """Coerce a batch or a sequence of scalar utilities into a batch."""
    if isinstance(utilities, UtilityBatch):
        return utilities
    return GenericBatch(utilities)


def pack_utilities(functions: Sequence[UtilityFunction]) -> UtilityBatch:
    """Scalar utilities in their array family when they all share one.

    Paper quadsplines (:class:`ConcaveQuadSpline` with the interior anchor
    at ``cap / 2``) pack into a :class:`QuadSplineBatch`, whose elementwise
    arithmetic is the scalar class's own.  Anything else, a mix, or an
    empty list stays a :class:`GenericBatch` over the same objects.
    """
    functions = list(functions)
    if functions and all(
        type(f) is ConcaveQuadSpline and f.xm == 0.5 * f.cap for f in functions
    ):
        params = np.array([(f.v, f.w, f.cap) for f in functions], dtype=float)
        try:
            return QuadSplineBatch(params[:, 0], params[:, 1], params[:, 2])
        except ValueError:
            # The scalar class admits concave anchors a hair past the
            # batch's w <= v tolerance; those stay scalar.
            pass
    return GenericBatch(functions)


def concat_batches(batches: Sequence[UtilityBatch]) -> UtilityBatch:
    """Stack same-family batches into one flat batch (thread-major).

    The trial-batched solve pipeline stores a whole sweep point's utilities
    as a single struct-of-arrays batch of ``sum(len(b) for b in batches)``
    threads.  Because every family evaluates elementwise, the concatenated
    batch's ``value`` / ``derivative`` / ``inverse_derivative_each`` agree
    bit-for-bit with evaluating each member batch on its own slice.

    Same-family array batches concatenate their parameter arrays
    (:class:`QuadSplineBatch`, :class:`PowerBatch`; and
    :class:`SharedGridPWLBatch` when every member shares one knot grid).
    Anything else — mixed families, :class:`GenericBatch` adapters — falls
    back to a :class:`GenericBatch` over the concatenated scalar functions,
    which keeps ``supports_vectorized = False``.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("concat_batches needs at least one batch")
    if len(batches) == 1:
        return batches[0]
    first_type = type(batches[0])
    if all(type(b) is first_type for b in batches):
        if first_type is QuadSplineBatch:
            return QuadSplineBatch(
                np.concatenate([b.v for b in batches]),
                np.concatenate([b.w for b in batches]),
                np.concatenate([b.caps for b in batches]),
            )
        if first_type is PowerBatch:
            return PowerBatch(
                np.concatenate([b.coeff for b in batches]),
                np.concatenate([b.beta for b in batches]),
                np.concatenate([b.caps for b in batches]),
            )
        if first_type is SharedGridPWLBatch and all(
            b.xs.shape == batches[0].xs.shape and np.array_equal(b.xs, batches[0].xs)
            for b in batches
        ):
            return SharedGridPWLBatch(
                batches[0].xs, np.vstack([b.ys for b in batches])
            )
    functions: list[UtilityFunction] = []
    for b in batches:
        functions.extend(b.functions())
    return GenericBatch(functions)
