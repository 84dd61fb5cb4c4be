"""UtilityBatch implementations: batch-vs-scalar agreement and subsetting."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utility.batch import (
    GenericBatch,
    PowerBatch,
    QuadSplineBatch,
    SharedGridPWLBatch,
    as_batch,
    concat_batches,
    pack_utilities,
)
from repro.utility.functions import LinearUtility, LogUtility
from repro.utility.quadspline import ConcaveQuadSpline

from tests.conftest import NONFINITE_SPLINES

CAP = 50.0


def _quad_batch(n=5, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.5, 5.0, n)
    w = v * rng.uniform(0.0, 1.0, n)
    return QuadSplineBatch(v, w, CAP)


def _power_batch(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return PowerBatch(rng.uniform(0.5, 3.0, n), rng.uniform(0.3, 1.0, n), CAP)


def _pwl_batch(n=4):
    xs = np.array([0.0, 10.0, 30.0, 50.0])
    rows = []
    for k in range(n):
        inc = np.array([0.0, 3.0 + k, 1.0, 0.5])
        rows.append(np.cumsum(inc))
    return SharedGridPWLBatch(xs, np.asarray(rows))


BATCHES = [_quad_batch, _power_batch, _pwl_batch]


@pytest.mark.parametrize("make", BATCHES, ids=lambda f: f.__name__)
def test_batch_matches_scalar_value(make):
    batch = make()
    fns = batch.functions()
    c = np.linspace(0, CAP, len(batch))
    batch_vals = batch.value(c)
    for i, f in enumerate(fns):
        assert batch_vals[i] == pytest.approx(float(f.value(c[i])), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("make", BATCHES, ids=lambda f: f.__name__)
def test_batch_matches_scalar_derivative(make):
    batch = make()
    fns = batch.functions()
    c = np.linspace(0.5, CAP - 0.5, len(batch))
    batch_d = batch.derivative(c)
    for i, f in enumerate(fns):
        assert batch_d[i] == pytest.approx(float(f.derivative(c[i])), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("make", BATCHES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("lam", [1e-6, 0.01, 0.2, 1.0, 10.0])
def test_batch_matches_scalar_inverse_derivative(make, lam):
    batch = make()
    fns = batch.functions()
    batch_inv = batch.inverse_derivative(lam)
    for i, f in enumerate(fns):
        assert batch_inv[i] == pytest.approx(f.inverse_derivative(lam), rel=1e-9, abs=1e-9)


class _Overshooting(LinearUtility):
    """A scalar utility whose demand overshoots its cap (a rounding slip)."""

    def inverse_derivative(self, lam: float) -> float:
        return self.cap * (1 + 1e-9)


def _generic_batch():
    return GenericBatch([_Overshooting(1.0, CAP), LogUtility(2.0, 1.0, CAP)])


@pytest.mark.parametrize("make", BATCHES + [_generic_batch], ids=lambda f: f.__name__)
@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.2, 10.0])
def test_demand_is_fresh_and_at_most_caps(make, lam):
    # The price searches sum demands as returned, with no clip of their own.
    batch = make()
    for x in (batch.inverse_derivative(lam), batch.inverse_derivative_each(np.full(len(batch), lam))):
        assert np.all(x <= batch.caps) and np.all(x >= 0.0)
        assert not np.shares_memory(x, batch.caps)


@pytest.mark.parametrize("make", BATCHES, ids=lambda f: f.__name__)
def test_subset_preserves_values(make):
    batch = make()
    idx = np.array([0, 2])
    sub = batch.subset(idx)
    assert len(sub) == 2
    c = np.array([1.0, 2.0])
    full = batch.value(np.array([1.0, 0.0, 2.0, 0.0, 0.0])[: len(batch)])
    assert sub.value(c)[0] == pytest.approx(full[0])


def test_total_sums_values():
    batch = _quad_batch()
    c = np.full(len(batch), 5.0)
    assert batch.total(c) == pytest.approx(float(np.sum(batch.value(c))))


def test_generic_batch_wraps_mixed_functions():
    fns = [LinearUtility(1.0, CAP), LogUtility(2.0, 3.0, CAP)]
    batch = GenericBatch(fns)
    assert len(batch) == 2
    c = np.array([2.0, 4.0])
    assert batch.value(c)[1] == pytest.approx(float(fns[1].value(4.0)))
    assert batch.functions() == fns


def test_generic_batch_subset_bool_mask():
    fns = [LinearUtility(s, CAP) for s in (1.0, 2.0, 3.0)]
    sub = GenericBatch(fns).subset(np.array([True, False, True]))
    assert len(sub) == 2
    assert sub.caps.shape == (2,)


def test_generic_batch_rejects_non_utility():
    with pytest.raises(TypeError):
        GenericBatch([LinearUtility(1.0, CAP), "nope"])


def test_as_batch_passthrough_and_wrap():
    batch = _quad_batch()
    assert as_batch(batch) is batch
    wrapped = as_batch([LinearUtility(1.0, CAP)])
    assert isinstance(wrapped, GenericBatch)


def test_quadspline_batch_rejects_w_above_v():
    with pytest.raises(ValueError):
        QuadSplineBatch([1.0], [2.0], CAP)


def test_quadspline_batch_rejects_negative():
    with pytest.raises(ValueError):
        QuadSplineBatch([-1.0], [-2.0], CAP)


@pytest.mark.parametrize("v, w, cap", NONFINITE_SPLINES)
def test_quadspline_batch_rejects_nonfinite_slopes(v, w, cap):
    """Refused with an explicit error, without a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            QuadSplineBatch([v], [w], cap)


def test_power_batch_rejects_bad_beta():
    with pytest.raises(ValueError):
        PowerBatch([1.0], [1.5], CAP)


def test_sharedgrid_rejects_nonconcave_rows():
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([[0.0, 1.0, 3.0]])  # increasing slopes
    with pytest.raises(ValueError, match="concavity"):
        SharedGridPWLBatch(xs, ys)


def test_sharedgrid_inverse_derivative_counts_slopes():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([[0.0, 3.0, 5.0, 6.0]])  # slopes 3, 2, 1
    b = SharedGridPWLBatch(xs, ys)
    assert b.inverse_derivative(2.5)[0] == pytest.approx(1.0)
    assert b.inverse_derivative(2.0)[0] == pytest.approx(2.0)
    assert b.inverse_derivative(0.5)[0] == pytest.approx(3.0)


@given(st.floats(min_value=0.0, max_value=CAP))
def test_quad_batch_value_matches_scalar_random_point(x):
    batch = _quad_batch(n=3, seed=4)
    c = np.full(3, x)
    vals = batch.value(c)
    for f, v in zip(batch.functions(), vals):
        assert v == pytest.approx(float(f.value(x)), rel=1e-9, abs=1e-12)


def test_empty_allocation_handling():
    batch = _quad_batch(n=3)
    out = batch.value(np.zeros(3))
    assert np.allclose(out, 0.0)


def test_pack_utilities_packs_paper_quadsplines_only():
    fns = _quad_batch(6).functions()
    packed = pack_utilities(fns)
    assert isinstance(packed, QuadSplineBatch)
    c = np.linspace(0.0, CAP, 6)
    assert np.array_equal(packed.value(c), [float(f.value(x)) for f, x in zip(fns, c)])
    # a mix, an off-centre anchor, a hair-past-tolerance anchor: scalar fallback
    for odd in (
        LogUtility(1.0, 1.0, CAP),
        ConcaveQuadSpline(2.0, 1.0, CAP, xm=CAP / 4),
        ConcaveQuadSpline(1.0, 1.0 + 1e-10, 1000.0),
    ):
        mixed = pack_utilities(fns + [odd])
        assert isinstance(mixed, GenericBatch)
        assert mixed.functions()[-1] is odd
    assert isinstance(pack_utilities([]), GenericBatch)


def _arrays(batch):
    return {k: v for k, v in vars(batch).items() if isinstance(v, np.ndarray)}


def _assert_same_arrays(got, fresh):
    assert _arrays(got).keys() == _arrays(fresh).keys()
    for name, arr in _arrays(got).items():
        ref = getattr(fresh, name)
        assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes(), name


_SHARES = (("_h2", "xm"), ("_2h1", "caps"), ("_2h2", "caps"))


def _shares(batch):
    return [getattr(batch, name) is getattr(batch, base) for name, base in _SHARES]


def _quad_with_caps(caps, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 5.0, len(caps))
    w = v * rng.uniform(0.0, 1.0, len(caps))
    tiny = caps < 1e-300  # keep v / xm finite on a subnormal cap
    v[tiny], w[tiny] = 1e-310, 5e-311
    return QuadSplineBatch(v, w, caps)


@pytest.mark.parametrize("tiny", [False, True], ids=["paper_caps", "subnormal_cap"])
def test_quadspline_subset_and_concat_carry_every_array(tiny, monkeypatch):
    """Subsets and concatenations slice the hoisted arrays instead of
    re-validating: every array is the bits a fresh batch over the same rows
    computes, and a hoisted piece the sources share with ``xm`` or ``caps``
    stays shared.  A subnormal cap's halves do not double back to it, so
    such a batch shares nothing."""
    caps = np.full(12, 1000.0)
    if tiny:
        caps[3] = 1.5e-323  # three ulps: half of it rounds to two
    src = _quad_with_caps(caps, 1)
    other = _quad_with_caps(np.full(5, 250.0), 2)
    assert _shares(src) == [not tiny] * 3 and _shares(other) == [True] * 3
    idx = np.array([3, 0, 3, 7, 11])
    fresh_sub = QuadSplineBatch(src.v[idx], src.w[idx], src.caps[idx])
    fresh_cat = QuadSplineBatch(
        *(np.concatenate([getattr(b, k) for b in (src, other)]) for k in ("v", "w", "caps"))
    )

    def no_validation(*args, **kwargs):
        raise AssertionError("carried batches skip the validating constructor")

    monkeypatch.setattr(QuadSplineBatch, "__init__", no_validation)
    sub = src.subset(idx)
    cat = concat_batches([src, other])
    _assert_same_arrays(sub, fresh_sub)
    _assert_same_arrays(cat, fresh_cat)
    assert _shares(sub) == _shares(src) == _shares(fresh_sub)
    assert _shares(cat) == _shares(fresh_cat) == [not tiny] * 3
