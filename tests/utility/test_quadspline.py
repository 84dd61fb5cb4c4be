"""ConcaveQuadSpline and PchipUtility: anchors, concavity, demand function."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utility.quadspline import ConcaveQuadSpline, PchipUtility

from tests.conftest import NONFINITE_SPLINES

CAP = 100.0

anchor_v = st.floats(min_value=1e-3, max_value=50.0)
anchor_frac = st.floats(min_value=0.0, max_value=1.0)


def test_interpolates_anchors():
    f = ConcaveQuadSpline(v=3.0, w=1.5, cap=CAP)
    assert f.value(0.0) == pytest.approx(0.0)
    assert f.value(CAP / 2) == pytest.approx(3.0)
    assert f.value(CAP) == pytest.approx(4.5)


@given(anchor_v, anchor_frac)
def test_concave_and_monotone_everywhere(v, frac):
    f = ConcaveQuadSpline(v=v, w=v * frac, cap=CAP)
    f.validate(n_points=401)


@given(anchor_v, anchor_frac)
def test_interpolation_property(v, frac):
    w = v * frac
    f = ConcaveQuadSpline(v=v, w=w, cap=CAP)
    assert f.value(CAP / 2) == pytest.approx(v, rel=1e-9, abs=1e-12)
    assert f.value(CAP) == pytest.approx(v + w, rel=1e-9, abs=1e-12)


@given(anchor_v, anchor_frac)
def test_derivative_nonincreasing_and_nonnegative(v, frac):
    f = ConcaveQuadSpline(v=v, w=v * frac, cap=CAP)
    xs = np.linspace(0, CAP, 101)
    ds = f.derivative(xs)
    assert np.all(ds >= -1e-12)
    assert np.all(np.diff(ds) <= 1e-9 * (1 + abs(float(ds[0]))))


@given(anchor_v, anchor_frac, st.floats(min_value=1e-6, max_value=10.0))
def test_inverse_derivative_inverts(v, frac, lam):
    f = ConcaveQuadSpline(v=v, w=v * frac, cap=CAP)
    x = f.inverse_derivative(lam)
    assert 0.0 <= x <= CAP
    eps = 1e-7 * CAP
    if x > eps:
        assert f.derivative(x - eps) >= lam - 1e-6 * (1 + lam)
    if x < CAP - eps:
        assert f.derivative(x + eps) <= lam + 1e-6 * (1 + lam)


def test_degenerate_zero_anchors():
    f = ConcaveQuadSpline(v=0.0, w=0.0, cap=CAP)
    assert f.value(CAP) == 0.0
    assert f.inverse_derivative(1.0) == 0.0
    assert f.inverse_derivative(0.0) == CAP


def test_flat_tail_when_w_zero():
    f = ConcaveQuadSpline(v=2.0, w=0.0, cap=CAP)
    assert f.value(CAP) == pytest.approx(2.0)
    assert f.derivative(CAP) == pytest.approx(0.0)


def test_rejects_nonconcave_anchors():
    with pytest.raises(ValueError, match="concave"):
        ConcaveQuadSpline(v=1.0, w=5.0, cap=CAP)


@pytest.mark.parametrize("v, w, cap", NONFINITE_SPLINES)
def test_rejects_nonfinite_slopes(v, w, cap):
    with pytest.raises(ValueError):
        ConcaveQuadSpline(v=v, w=w, cap=cap)


def test_rejects_bad_xm():
    with pytest.raises(ValueError):
        ConcaveQuadSpline(v=1.0, w=0.5, cap=CAP, xm=0.0)
    with pytest.raises(ValueError):
        ConcaveQuadSpline(v=1.0, w=0.5, cap=CAP, xm=CAP)


def test_custom_xm():
    f = ConcaveQuadSpline(v=4.0, w=0.1, cap=CAP, xm=80.0)
    assert f.value(80.0) == pytest.approx(4.0)
    f.validate()


# -- PchipUtility -----------------------------------------------------------


def test_pchip_interpolates_paper_anchors():
    f = PchipUtility.from_paper_anchors(v=3.0, w=2.0, cap=CAP)
    assert f.value(0.0) == pytest.approx(0.0)
    assert f.value(CAP / 2) == pytest.approx(3.0)
    assert f.value(CAP) == pytest.approx(5.0)


def test_pchip_monotone():
    f = PchipUtility.from_paper_anchors(v=1.0, w=0.9, cap=CAP)
    xs = np.linspace(0, CAP, 301)
    assert np.all(np.diff(f.value(xs)) >= -1e-9)


def test_pchip_rejects_w_above_v():
    with pytest.raises(ValueError, match="w <= v"):
        PchipUtility.from_paper_anchors(v=1.0, w=2.0, cap=CAP)


def test_pchip_rejects_decreasing_anchors():
    with pytest.raises(ValueError):
        PchipUtility([0, 1, 2], [0, 2, 1])


def test_pchip_clips_beyond_last_anchor():
    f = PchipUtility([0, 1], [0, 3], cap=5.0)
    assert f.value(4.0) == pytest.approx(3.0)
    assert f.derivative(4.0) == pytest.approx(0.0)


def test_pchip_vs_quadspline_agree_at_anchors():
    v, w = 2.5, 1.0
    p = PchipUtility.from_paper_anchors(v, w, CAP)
    q = ConcaveQuadSpline(v, w, CAP)
    for x in (0.0, CAP / 2, CAP):
        assert p.value(x) == pytest.approx(q.value(x))
