"""Hosting center: service utilities, planning and measurement."""

import numpy as np
import pytest

from repro.simulate.hosting.center import (
    HostingCenter,
    WebService,
    random_services,
)


def _service(lam=8.0):
    return WebService(
        name="svc",
        arrival_rate=lam,
        value_per_request=1.0,
        rate_per_unit=1.0,
        buffer_size=8,
    )


def test_service_validation():
    with pytest.raises(ValueError):
        WebService("s", -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        WebService("s", 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        WebService("s", 1.0, 1.0, 1.0, buffer_size=0)


def test_goodput_zero_at_zero_capacity():
    assert _service().goodput(0.0) == 0.0


def test_goodput_saturates_at_arrival_rate():
    s = _service(lam=5.0)
    assert s.goodput(1000.0) == pytest.approx(5.0, rel=1e-3)


def test_utility_is_concave_and_monotone():
    u = _service().utility(capacity=50.0)
    u.validate()


def test_utility_tracks_goodput_shape():
    s = _service()
    grid = np.linspace(0, 50, 65)
    u = s.utility(capacity=50.0, grid_points=65)
    # The envelope majorizes the true curve at its sample knots (between
    # knots the PWL chord may dip below a locally concave goodput).
    for c in grid:
        assert float(u.value(c)) >= s.value_per_request * s.goodput(float(c)) - 1e-9


def test_random_services_mix():
    svcs = random_services(20, seed=0)
    assert len(svcs) == 20
    lams = [s.arrival_rate for s in svcs]
    assert max(lams) > 15.0  # some heavy hitters
    assert min(lams) < 12.0


def test_center_validation():
    with pytest.raises(ValueError):
        HostingCenter(0, 10.0)
    with pytest.raises(ValueError):
        HostingCenter(2, -1.0)


def test_plan_feasible_and_bounded():
    center = HostingCenter(3, 40.0)
    svcs = random_services(9, seed=1)
    plan = center.plan(svcs)
    loads = np.bincount(plan.servers, weights=plan.grants, minlength=3)
    assert np.all(loads <= 40.0 + 1e-6)
    assert plan.planned_value <= plan.upper_bound + 1e-6


def test_alg2_beats_heuristics_planned():
    center = HostingCenter(3, 40.0)
    svcs = random_services(12, seed=2)
    ours = center.plan(svcs, method="alg2").planned_value
    for m in ("UU", "UR", "RU", "RR"):
        assert ours >= center.plan(svcs, method=m, seed=3).planned_value - 1e-9


def test_measured_close_to_planned():
    center = HostingCenter(2, 30.0)
    svcs = random_services(6, seed=4)
    plan = center.plan(svcs)
    measured = center.measure(plan, horizon=3000.0, seed=5)
    assert measured == pytest.approx(plan.planned_value, rel=0.15)


def test_unknown_method():
    center = HostingCenter(2, 30.0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        center.plan(random_services(4, seed=0), method="nope")


def test_measure_skips_zero_grants():
    center = HostingCenter(2, 30.0)
    svcs = random_services(4, seed=6)
    plan = center.plan(svcs)
    grants = plan.grants.copy()
    grants[:] = 0.0
    zeroed = type(plan)(
        services=plan.services,
        servers=plan.servers,
        grants=grants,
        planned_value=0.0,
        upper_bound=plan.upper_bound,
    )
    assert center.measure(zeroed, horizon=100.0, seed=7) == 0.0
