"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.problem import AAProblem
from repro.utility.functions import (
    CappedLinearUtility,
    LinearUtility,
    LogUtility,
    PiecewiseLinearUtility,
    PowerUtility,
    SaturatingUtility,
    ZeroUtility,
)
from repro.utility.quadspline import ConcaveQuadSpline

#: A capacity used by most strategy-generated instances.
CAP = 10.0

_HALF_MAX = np.finfo(float).max / 2

#: Quadspline parameters ``(v, w, cap)`` whose knot slopes are not finite
#: floats: half the cap rounds to 0; ``v / (cap/2)`` overflows; with cap 2,
#: w a hair above v (inside the concavity tolerance) overflows ``2 * w`` and
#: so only the right-end slope ``d2``.
NONFINITE_SPLINES = [
    pytest.param(1.0, 0.5, 5e-324, id="cap_half_underflows"),
    pytest.param(1e10, 5e9, 1e-300, id="slope_overflows"),
    pytest.param(
        _HALF_MAX * (1 - 1e-13), _HALF_MAX * (1 + 1e-13), 2.0, id="right_end_slope_overflows"
    ),
]

# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

_pos = st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False)
_frac = st.floats(min_value=0.05, max_value=0.95, allow_nan=False, allow_infinity=False)


def concave_utilities(cap: float = CAP):
    """Strategy producing one concave nondecreasing utility on [0, cap]."""
    return st.one_of(
        st.builds(lambda s: LinearUtility(s, cap), _pos),
        st.builds(lambda s, b: CappedLinearUtility(s, b * cap, cap), _pos, _frac),
        st.builds(
            lambda c, b: PowerUtility(c, b, cap),
            _pos,
            st.floats(min_value=0.2, max_value=1.0),
        ),
        st.builds(lambda c, s: LogUtility(c, s, cap), _pos, _pos),
        st.builds(lambda v, k: SaturatingUtility(v, k, cap), _pos, _pos),
        st.builds(
            lambda v, f: ConcaveQuadSpline(v, v * f, cap),
            _pos,
            _frac,
        ),
        st.just(ZeroUtility(cap)),
    )


def utility_lists(min_size: int = 1, max_size: int = 8, cap: float = CAP):
    """Strategy producing a list of concave utilities."""
    return st.lists(concave_utilities(cap), min_size=min_size, max_size=max_size)


def aa_problems(max_threads: int = 8, max_servers: int = 4, cap: float = CAP):
    """Strategy producing a full AA instance."""
    return st.builds(
        lambda fns, m: AAProblem(fns, n_servers=m, capacity=cap),
        utility_lists(1, max_threads, cap),
        st.integers(min_value=1, max_value=max_servers),
    )


# ---------------------------------------------------------------------------
# plain fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def mixed_utilities():
    """A fixed, diverse bundle of utilities on [0, 10]."""
    return [
        LinearUtility(0.5, CAP),
        CappedLinearUtility(2.0, 3.0, CAP),
        PowerUtility(1.5, 0.5, CAP),
        LogUtility(2.0, 1.0, CAP),
        SaturatingUtility(3.0, 2.0, CAP),
        ConcaveQuadSpline(2.0, 1.0, CAP),
        PiecewiseLinearUtility([0.0, 2.0, 6.0, 10.0], [0.0, 3.0, 5.0, 5.5]),
        ZeroUtility(CAP),
    ]


@pytest.fixture
def small_problem(mixed_utilities):
    return AAProblem(mixed_utilities, n_servers=3, capacity=CAP)


def assert_allocation_optimal(batch, allocations, budget, tol=1e-6):
    """Assert KKT optimality of a single-pool allocation (shared helper)."""
    from repro.allocation.waterfill import kkt_violation

    gain = kkt_violation(batch, allocations, budget)
    derivs = np.asarray(batch.derivative(np.asarray(allocations, dtype=float)))
    finite = derivs[np.isfinite(derivs)]
    scale = max(float(finite.max()) if finite.size else 1.0, 1.0)
    assert np.isfinite(gain) and gain <= tol * scale, (
        f"KKT violation {gain} exceeds tolerance {tol * scale}"
    )
