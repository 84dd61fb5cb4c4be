"""Cloud-provider substrate: portfolios, plans, revenue comparisons."""

import numpy as np
import pytest

from repro.simulate.cloud.provider import CloudProvider
from repro.simulate.cloud.vm import TIERS, random_portfolio


def test_portfolio_size_and_tiers():
    reqs = random_portfolio(25, capacity=64.0, seed=0)
    assert len(reqs) == 25
    assert {r.tier for r in reqs} <= set(TIERS)


def test_portfolio_reproducible():
    a = random_portfolio(10, 64.0, seed=1)
    b = random_portfolio(10, 64.0, seed=1)
    assert [r.tier for r in a] == [r.tier for r in b]
    assert all(
        float(x.utility.value(32.0)) == pytest.approx(float(y.utility.value(32.0)))
        for x, y in zip(a, b)
    )


def test_portfolio_utilities_valid():
    for r in random_portfolio(12, 64.0, seed=2):
        r.utility.validate()


def test_portfolio_rejects_bad_args():
    with pytest.raises(ValueError):
        random_portfolio(-1, 64.0)
    with pytest.raises(ValueError):
        random_portfolio(3, 64.0, tier_weights=(1.0,))
    with pytest.raises(ValueError):
        random_portfolio(3, 64.0, tier_weights=(0.0, 0.0, 0.0))


def test_provider_validation():
    with pytest.raises(ValueError):
        CloudProvider(0, 64.0)
    with pytest.raises(ValueError):
        CloudProvider(2, 0.0)


def test_plan_feasibility_and_bound():
    reqs = random_portfolio(20, 64.0, seed=3)
    provider = CloudProvider(4, 64.0)
    plan = provider.plan(reqs)
    loads = np.bincount(plan.machines, weights=plan.sizes, minlength=4)
    assert np.all(loads <= 64.0 + 1e-6)
    assert plan.revenue <= plan.upper_bound + 1e-6
    assert plan.certified_ratio >= 0.8


def test_alg2_beats_heuristics():
    reqs = random_portfolio(30, 64.0, seed=4)
    provider = CloudProvider(4, 64.0)
    plans = provider.compare_methods(reqs, seed=5)
    for name in ("UU", "UR", "RU", "RR"):
        assert plans["alg2"].revenue >= plans[name].revenue - 1e-9


def test_empty_portfolio():
    provider = CloudProvider(2, 64.0)
    plan = provider.plan([])
    assert plan.revenue == 0.0
    assert plan.rejected == []


def test_rejected_requests_have_zero_size():
    reqs = random_portfolio(40, 16.0, seed=6)  # oversubscribed small machines
    provider = CloudProvider(2, 16.0)
    plan = provider.plan(reqs)
    names = {r.name for r in reqs}
    for rejected in plan.rejected:
        assert rejected in names


def test_unknown_method():
    provider = CloudProvider(2, 64.0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        provider.plan(random_portfolio(4, 64.0, seed=0), method="magic")
