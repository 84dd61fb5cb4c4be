"""GapMonitor: the α guarantee as a runtime alarm."""

import math

import pytest

from repro.core.problem import ALPHA
from repro.observability import GapMonitor


def test_default_threshold_is_the_papers_alpha():
    assert GapMonitor().threshold == pytest.approx(ALPHA)


def test_healthy_steps_do_not_alert():
    mon = GapMonitor()
    for ratio in (1.0, 0.95, ALPHA):
        assert mon.observe(ratio, 1.0) is None
    stats = mon.stats()
    assert stats["ok"] and stats["breaches"] == 0 and stats["steps"] == 3
    assert stats["min_ratio"] == pytest.approx(ALPHA)


def test_breach_emits_structured_alert_with_context():
    mon = GapMonitor()
    alert = mon.observe(0.5, 1.0, version=42)
    assert alert == {
        "type": "gap_alert",
        "ratio": 0.5,
        "threshold": pytest.approx(ALPHA),
        "utility": 0.5,
        "bound": 1.0,
        "breaches": 1,
        "version": 42,
    }
    stats = mon.stats()
    assert not stats["ok"] and stats["breaches"] == 1


def test_tolerance_absorbs_roundoff_at_the_boundary():
    mon = GapMonitor(threshold=0.8, tolerance=1e-9)
    assert mon.observe(0.8 * (1 - 1e-12), 1.0) is None
    assert mon.observe(0.8 - 1e-6, 1.0) is not None


def test_empty_cluster_certifies_trivially():
    mon = GapMonitor()
    assert mon.observe(0.0, 0.0) is None
    assert mon.last_ratio == 1.0


def test_rolling_quantiles_and_window():
    mon = GapMonitor(threshold=0.0, window=4)
    for ratio in (0.1, 0.2, 0.3, 0.4, 0.5):  # 0.1 evicted by the window
        mon.observe(ratio, 1.0)
    assert mon.quantile(0.0) == pytest.approx(0.2)
    assert mon.quantile(0.5) == pytest.approx(0.3)
    assert mon.quantile(1.0) == pytest.approx(0.5)
    assert mon.stats()["window"] == 4
    assert mon.min_ratio == pytest.approx(0.1)  # lifetime min survives eviction
    with pytest.raises(ValueError):
        mon.quantile(1.5)


def test_empty_monitor_stats():
    stats = GapMonitor().stats()
    assert stats["steps"] == 0 and stats["ok"]
    assert stats["min_ratio"] is None and stats["p50"] is None
    assert math.isnan(GapMonitor().quantile(0.5))


def test_window_validation():
    with pytest.raises(ValueError):
        GapMonitor(window=0)
