"""UtilityBatch implementations: batch-vs-scalar agreement and subsetting."""

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
    pack_utilities,
)
from repro.utility.functions import LinearUtility, LogUtility
from repro.utility.quadspline import ConcaveQuadSpline

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
