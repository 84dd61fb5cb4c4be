"""``QuadSplineBatch``'s kernels against their historical bodies.

The demand, value and derivative kernels sit on the hot paths of the price
searches and the sweeps, and all three were rewritten for speed with the promise that every result stays bit for bit
the same.  The references below are the historical bodies, copied verbatim
with their hoisted pieces recomputed as the historical constructor did.
Results are compared with ``tobytes()``, so a ``-0.0`` where the reference
has ``+0.0`` fails too.  The anchors reach the degenerate corners: ``v = 0``,
``w = 0``, ``w = v``, ``w`` at the constructor's tolerance above ``v``, and
tiny (down to subnormal) increments.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utility.batch import QuadSplineBatch


def _historical_demand(self, lam) -> np.ndarray:
    # Pieces the historical constructor hoisted.
    self._h2 = self.caps - self.xm
    self._den1 = self.d0 - self.d1
    self._den2 = self.d1 - self.d2
    self._flat01 = self.d0 <= self.d1
    self._flat12 = self.d1 <= self.d2
    self._xm_flat12 = self.xm[self._flat12]
    # The historical body, verbatim.
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


def _historical_value(self, c: np.ndarray) -> np.ndarray:
    c = np.clip(np.asarray(c, dtype=float), 0.0, self.caps)
    h1 = self.xm
    h2 = self.caps - self.xm
    t1 = np.minimum(c, self.xm)
    t2 = np.maximum(c - self.xm, 0.0)
    seg1 = self.d0 * t1 + (self.d1 - self.d0) * t1 * t1 / (2.0 * h1)
    seg2 = self.d1 * t2 + (self.d2 - self.d1) * t2 * t2 / (2.0 * h2)
    return seg1 + seg2


def _historical_derivative(self, c: np.ndarray) -> np.ndarray:
    c = np.clip(np.asarray(c, dtype=float), 0.0, self.caps)
    left = self.d0 + (self.d1 - self.d0) * c / self.xm
    right = self.d1 + (self.d2 - self.d1) * (c - self.xm) / (self.caps - self.xm)
    return np.where(c <= self.xm, left, right)


class _Reference:
    """The historical kernels over a batch's spline coefficients."""

    def __init__(self, batch: QuadSplineBatch):
        self.caps, self.xm = batch.caps, batch.xm
        self.d0, self.d1, self.d2 = batch.d0, batch.d1, batch.d2

    def demand(self, lam) -> np.ndarray:
        with np.errstate(over="ignore"):  # subnormal anchors overflow, then clip
            return _historical_demand(self, lam)

    value = _historical_value
    derivative = _historical_derivative


_TINY = [5e-324, 1e-310, 1e-300, 1e-12]

_v = st.sampled_from([0.0, *_TINY]) | st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def _anchor(draw):
    """One thread's ``(v, w, cap)``, degenerate corners included."""
    v = draw(_v)
    kind = draw(st.sampled_from(["zero", "equal", "above", "fraction"]))
    if kind == "zero":
        w = 0.0
    elif kind == "equal":
        w = v
    elif kind == "above":  # the largest w the constructor admits
        w = v * (1 + 1e-12) + 1e-12
    else:
        w = v * draw(st.floats(min_value=0.0, max_value=1.0))
    cap = draw(
        st.sampled_from([125.0, 1000.0, 1.0])
        | st.floats(min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False)
    )
    return v, w, cap


_batches = st.lists(_anchor(), min_size=1, max_size=24).map(
    lambda rows: QuadSplineBatch(*np.array(rows, dtype=float).T)
)


def _prices(draw, batch: QuadSplineBatch) -> list[float]:
    """Breakpoints of the batch, their neighbours, 0, and random prices."""
    knots = np.concatenate([batch.d0, batch.d1, batch.d2, [0.0, -0.0]])
    knots = np.concatenate([knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf)])
    random = draw(
        st.lists(st.floats(min_value=0.0, max_value=2.0 * float(np.max(batch.d0)) + 1.0),
                 min_size=1, max_size=8)
    )
    return [float(x) for x in knots] + random


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.flatnonzero(
        got.view(np.int64) != want.view(np.int64)
    )


@settings(max_examples=300, deadline=None)
@given(_batches, st.data())
def test_demand_matches_historical_formula_scalar_price(batch, data):
    ref = _Reference(batch)
    for lam in _prices(data.draw, batch):
        _same_bits(batch.inverse_derivative(lam), ref.demand(lam))


@settings(max_examples=300, deadline=None)
@given(_batches, st.data())
def test_demand_matches_historical_formula_per_thread_prices(batch, data):
    ref = _Reference(batch)
    pool = _prices(data.draw, batch)
    lam = np.array(
        data.draw(st.lists(st.sampled_from(pool), min_size=len(batch), max_size=len(batch)))
    )
    _same_bits(batch.inverse_derivative_each(lam), ref.demand(lam))


@settings(max_examples=200, deadline=None)
@given(_batches, st.data())
def test_value_and_derivative_match_historical_formulas(batch, data):
    fractions = data.draw(
        st.lists(st.floats(min_value=-0.5, max_value=1.5) | st.sampled_from([0.0, 0.5, 1.0]),
                 min_size=len(batch), max_size=len(batch))
    )
    c = np.array(fractions) * batch.caps
    ref = _Reference(batch)
    _same_bits(batch.value(c), ref.value(c))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _same_bits(batch.derivative(c), ref.derivative(c))


def test_demand_matches_historical_formula_at_scale():
    rng = np.random.default_rng(7)
    n = 50_000
    v = rng.uniform(0.0, 1.0, n)
    w = v * rng.uniform(0.0, 1.0, n)
    batch = QuadSplineBatch(v, w, rng.uniform(60.0, 125.0, n))
    ref = _Reference(batch)
    for lam in (1.7e-3, 0.0, 1.0, rng.choice(np.concatenate([batch.d0, batch.d1, batch.d2]), n),
                1.7e-3 * rng.lognormal(0.0, 0.5, n)):
        _same_bits(batch.inverse_derivative_each(np.broadcast_to(lam, (n,))), ref.demand(lam))

