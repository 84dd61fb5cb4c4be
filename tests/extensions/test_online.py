"""Online scheduler: churn, rebalance, migration accounting, adaptation."""

import numpy as np
import pytest

from repro.extensions.online import AdaptiveScheduler, OnlineScheduler
from repro.utility.functions import LogUtility, SaturatingUtility

CAP = 10.0


def _util(c=1.0):
    return LogUtility(c, 1.0, CAP)


def test_construction_validation():
    with pytest.raises(ValueError):
        OnlineScheduler(0, CAP)
    with pytest.raises(ValueError):
        OnlineScheduler(2, 0.0)
    with pytest.raises(ValueError):
        OnlineScheduler(2, CAP, migration_cost=-1.0)


def test_add_places_on_some_server():
    s = OnlineScheduler(3, CAP)
    j = s.add_thread("a", _util())
    assert 0 <= j < 3
    assert s.thread_ids == ["a"]


def test_added_thread_gets_resource():
    s = OnlineScheduler(2, CAP)
    s.add_thread("a", _util())
    a = s.assignment()
    assert a.allocations[0] == pytest.approx(CAP)


def test_duplicate_id_rejected():
    s = OnlineScheduler(2, CAP)
    s.add_thread("a", _util())
    with pytest.raises(ValueError):
        s.add_thread("a", _util())


def test_cap_above_capacity_rejected():
    s = OnlineScheduler(2, CAP)
    with pytest.raises(ValueError):
        s.add_thread("big", LogUtility(1.0, 1.0, CAP * 2))


def test_arrivals_spread_over_servers():
    s = OnlineScheduler(2, CAP)
    for k in range(4):
        s.add_thread(f"t{k}", _util(1.0))
    servers = s.assignment().servers
    assert set(servers.tolist()) == {0, 1}


def test_remove_returns_resource_to_residents():
    s = OnlineScheduler(1, CAP)
    s.add_thread("a", _util(1.0))
    s.add_thread("b", _util(1.0))
    s.remove_thread("a")
    a = s.assignment()
    assert a.allocations[0] == pytest.approx(CAP)


def test_remove_unknown_raises():
    s = OnlineScheduler(1, CAP)
    with pytest.raises(KeyError):
        s.remove_thread("ghost")


def test_total_utility_empty():
    assert OnlineScheduler(2, CAP).total_utility() == 0.0


def test_rebalance_empty_noop():
    s = OnlineScheduler(2, CAP)
    rep = s.rebalance()
    assert rep.migrations == 0
    assert rep.net_gain == 0.0


def test_rebalance_never_reduces_net_value():
    rng = np.random.default_rng(0)
    s = OnlineScheduler(3, CAP, migration_cost=0.05)
    for k in range(9):
        s.add_thread(f"t{k}", _util(float(rng.uniform(0.5, 4.0))))
    before = s.total_utility()
    rep = s.rebalance()
    assert s.total_utility() >= before - 1e-9
    assert rep.utility_after >= rep.utility_before - 1e-9


def test_rebalance_declines_when_migration_too_expensive():
    s = OnlineScheduler(2, CAP, migration_cost=1e9)
    for k in range(6):
        s.add_thread(f"t{k}", _util(1.0 + k))
    before_servers = s.assignment().servers.copy()
    rep = s.rebalance()
    assert rep.migrations == 0
    assert np.array_equal(s.assignment().servers, before_servers)


def test_migration_counter_accumulates():
    s = OnlineScheduler(2, CAP)
    for k in range(6):
        s.add_thread(f"t{k}", _util(1.0 + k))
    s.rebalance()
    assert s.total_migrations >= 0  # counted, never negative


def test_churn_sequence_keeps_feasibility():
    rng = np.random.default_rng(1)
    s = OnlineScheduler(3, CAP, migration_cost=0.01)
    alive = []
    for step in range(30):
        if alive and rng.uniform() < 0.4:
            victim = alive.pop(int(rng.integers(len(alive))))
            s.remove_thread(victim)
        else:
            tid = f"t{step}"
            s.add_thread(tid, _util(float(rng.uniform(0.5, 3.0))))
            alive.append(tid)
        if step % 7 == 0:
            s.rebalance()
        a = s.assignment()
        if a.n_threads:
            loads = np.bincount(a.servers, weights=a.allocations, minlength=3)
            assert np.all(loads <= CAP + 1e-6)


# -- migration accounting (fixed seed suite) ---------------------------------


@pytest.mark.parametrize("seed", [3, 11, 42, 2024])
def test_rebalance_migrations_match_hand_count(seed):
    """``RebalanceReport.migrations`` equals the hand-counted server changes."""
    rng = np.random.default_rng(seed)
    s = OnlineScheduler(4, CAP)
    for k in range(14):
        s.add_thread(f"t{k}", _util(float(rng.uniform(0.3, 4.0))))
    for k in range(0, 14, 3):
        s.remove_thread(f"t{k}")
    ids = s.thread_ids
    before = {t: s.placement_of(t)[0] for t in ids}
    rep = s.rebalance()
    after = {t: s.placement_of(t)[0] for t in ids}
    hand_count = sum(1 for t in ids if before[t] != after[t])
    assert rep.migrations == hand_count
    assert s.total_migrations == hand_count


@pytest.mark.parametrize("seed", [0, 1, 5, 9, 123])
def test_rebalance_utility_never_decreases(seed):
    rng = np.random.default_rng(seed)
    s = OnlineScheduler(3, CAP, migration_cost=0.02)
    for k in range(10):
        s.add_thread(f"t{k}", _util(float(rng.uniform(0.5, 3.0))))
    rep = s.rebalance()
    assert rep.utility_after >= rep.utility_before - 1e-9
    assert s.total_utility() == pytest.approx(max(rep.utility_after, rep.utility_before))


def test_declined_rebalance_reports_zero_migrations():
    s = OnlineScheduler(2, CAP, migration_cost=1e9)
    for k in range(6):
        s.add_thread(f"t{k}", _util(1.0 + k))
    before = {t: s.placement_of(t)[0] for t in s.thread_ids}
    rep = s.rebalance()
    assert rep.migrations == 0
    assert s.total_migrations == 0
    assert {t: s.placement_of(t)[0] for t in s.thread_ids} == before


def test_max_migrations_budget_declines_wholesale():
    s = OnlineScheduler(2, CAP)
    for k in range(4):
        s.add_thread(f"t{k}", _util())
    # Strand both survivors on one server, then ask for a budget-0 replan.
    victims = [t for t in s.thread_ids if s.placement_of(t)[0] == 1]
    for t in victims:
        s.remove_thread(t)
    before = {t: s.placement_of(t)[0] for t in s.thread_ids}
    rep = s.rebalance(max_migrations=0)
    assert rep.migrations == 0
    assert {t: s.placement_of(t)[0] for t in s.thread_ids} == before
    # With the budget lifted the same replan applies and improves utility.
    rep = s.rebalance(max_migrations=1)
    assert rep.migrations == 1
    assert rep.utility_after > rep.utility_before


# -- service primitives -------------------------------------------------------


def test_placement_gain_matches_add_thread_choice():
    rng = np.random.default_rng(6)
    s = OnlineScheduler(3, CAP)
    for k in range(7):
        f = _util(float(rng.uniform(0.5, 3.0)))
        server_predicted, gain = s.placement_gain(f)
        assert gain >= -1e-9
        server_actual = s.add_thread(f"t{k}", f)
        assert server_actual == server_predicted


def test_placement_gain_does_not_mutate():
    s = OnlineScheduler(2, CAP)
    s.add_thread("a", _util())
    before = s.assignment()
    s.placement_gain(_util(2.0))
    after = s.assignment()
    assert np.array_equal(before.servers, after.servers)
    assert np.array_equal(before.allocations, after.allocations)
    assert s.thread_ids == ["a"]


def test_placement_gain_rejects_oversized_cap():
    s = OnlineScheduler(2, CAP)
    with pytest.raises(ValueError):
        s.placement_gain(LogUtility(1.0, 1.0, CAP * 2))


def test_restore_thread_exact_position():
    s = OnlineScheduler(3, CAP)
    s.restore_thread("a", _util(), server=2, allocation=3.25)
    assert s.placement_of("a") == (2, 3.25)
    a = s.assignment()
    assert a.servers.tolist() == [2]
    assert a.allocations.tolist() == [3.25]


def test_restore_thread_validation():
    s = OnlineScheduler(2, CAP)
    s.restore_thread("a", _util(), server=0, allocation=1.0)
    with pytest.raises(ValueError):
        s.restore_thread("a", _util(), server=0, allocation=1.0)  # duplicate
    with pytest.raises(ValueError):
        s.restore_thread("b", _util(), server=5, allocation=1.0)  # bad server
    with pytest.raises(ValueError):
        s.restore_thread("c", _util(), server=0, allocation=CAP * 2)  # too much


def test_update_capacity_refills():
    s = OnlineScheduler(1, CAP)
    s.add_thread("a", _util())
    s.add_thread("b", _util())
    assert sorted(s.assignment().allocations.tolist()) == pytest.approx([5.0, 5.0])
    # Doubling C re-fills both residents up to their domain caps.
    s.update_capacity(2 * CAP)
    assert s.capacity == 2 * CAP
    assert sorted(s.assignment().allocations.tolist()) == pytest.approx([CAP, CAP])


def test_update_capacity_rejects_below_resident_cap():
    s = OnlineScheduler(1, CAP)
    s.add_thread("a", LogUtility(1.0, 1.0, CAP))  # cap = CAP
    with pytest.raises(ValueError):
        s.update_capacity(CAP / 2)
    with pytest.raises(ValueError):
        s.update_capacity(0.0)


def test_placement_of_unknown_raises():
    s = OnlineScheduler(1, CAP)
    with pytest.raises(KeyError):
        s.placement_of("ghost")


# -- AdaptiveScheduler -------------------------------------------------------


def test_adaptive_register_and_observe():
    ad = AdaptiveScheduler(2, CAP)
    ad.register("x")
    ad.observe("x", 5.0, 2.0)
    with pytest.raises(KeyError):
        ad.observe("ghost", 1.0, 1.0)


def test_adaptive_learns_and_improves():
    rng = np.random.default_rng(2)
    truths = {f"s{k}": SaturatingUtility(1.0 + 2 * k, 1.0, CAP) for k in range(4)}
    ad = AdaptiveScheduler(2, CAP, n_knots=10)
    for tid in truths:
        ad.register(tid)
    for _ in range(50):
        for tid, f in truths.items():
            x = float(rng.uniform(0, CAP))
            ad.observe(tid, x, float(f.value(x)) + float(rng.normal(0, 0.02)))
    ad.replan_from_measurements()
    # Evaluate the *true* value of the learned plan vs a uniform split.
    a = ad.assignment()
    ids = ad.thread_ids
    learned = sum(
        float(truths[t].value(c)) for t, c in zip(ids, a.allocations)
    )
    uniform = sum(float(truths[t].value(CAP / 2)) for t in ids)
    assert learned >= uniform * 0.95


def test_adaptive_replan_without_data_keeps_prior():
    ad = AdaptiveScheduler(2, CAP)
    ad.register("a")
    rep = ad.replan_from_measurements()
    assert rep.utility_after >= 0.0


# -- placement gain is never negative ----------------------------------------


def test_placement_gain_never_negative_for_paper_quadsplines():
    """A newcomer that gets no share still gains exactly 0, never -ulp.

    With 32 paper threads on 2 servers the 33rd arrival's best water-fill
    leaves it nothing; the before/after utility difference is then pure
    bisection noise (once -4.4e-16), which an admission floor of 0 refused.
    """
    from repro.workloads import UniformDistribution, paper_utilities

    fns = paper_utilities(UniformDistribution(), 48, 1000.0, seed=7).functions()
    s = OnlineScheduler(2, 1000.0)
    for k, f in enumerate(fns):
        _, gain = s.placement_gain(f)
        assert gain >= 0.0, (k, gain)
        s.add_thread(f"t{k}", f)


def test_placement_gain_is_clamped_at_zero():
    """Restored allocations may overshoot C by the restore tolerance; the
    fill then values the server a hair below its current utility, and a
    newcomer that takes nothing must still report a gain of exactly 0."""
    from repro.utility.functions import LinearUtility, ZeroUtility

    s = OnlineScheduler(1, CAP)
    for t in ("a", "b"):
        s.restore_thread(t, LinearUtility(1.0, CAP), server=0, allocation=CAP / 2 * (1 + 1e-10))
    assert s.placement_gain(ZeroUtility(CAP)) == (0, 0.0)


def test_zero_gain_submit_is_admitted():
    from repro.service import AllocationService, ClusterState, InProcessTransport, SubmitThread
    from repro.workloads import UniformDistribution, paper_utilities

    fns = paper_utilities(UniformDistribution(), 48, 1000.0, seed=7).functions()
    bus = InProcessTransport(AllocationService(ClusterState(2, 1000.0)))
    responses = bus.request(*[SubmitThread(f"t{k}", f) for k, f in enumerate(fns)])
    assert [r.error for r in responses if not r.ok] == []
