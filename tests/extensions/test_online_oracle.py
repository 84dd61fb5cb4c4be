"""The array-native online scheduler against a cold per-server oracle.

Random churn (submit, remove, capacity change, rebalance) over a mix of
paper quadsplines (packed into a ``QuadSplineBatch``) and ``LogUtility``
threads (the ``GenericBatch`` fallback).  After every operation the live
state must equal what a from-scratch computation over scalar utilities
gives: per-server water-fills, placement gains, total utility and the
serialized round trip.
"""

import numpy as np
import pytest

from repro.allocation.grouped import water_fill_grouped
from repro.allocation.waterfill import water_fill
from repro.core.problem import AAProblem
from repro.extensions.online import OnlineScheduler
from repro.serialization import scheduler_state_from_dict, scheduler_state_to_dict
from repro.utility.batch import GenericBatch, QuadSplineBatch
from repro.utility.functions import LogUtility
from repro.workloads import UniformDistribution, paper_utilities

CAP = 1000.0
M = 3


def _cold_server_fill(s, j, extra=None):
    """Cold scalar water-fill of server ``j``'s residents (plus ``extra``)."""
    fns = [f for _, f, server, _ in s.residents() if server == j]
    if extra is not None:
        fns.append(extra)
    return water_fill(GenericBatch(fns), s.capacity)


def _cold_gain(s, utility):
    """Best placement gain recomputed server by server from scalars."""
    gains = []
    for j in range(s.n_servers):
        before = sum(
            float(f.value(c)) for _, f, server, c in s.residents() if server == j
        )
        gains.append(_cold_server_fill(s, j, utility).total_utility - before)
    return gains


def _check_against_oracle(s):
    rows = list(s.residents())
    for j in range(s.n_servers):
        live = np.array([c for _, _, server, c in rows if server == j])
        if live.size:
            cold = _cold_server_fill(s, j).allocations
            np.testing.assert_allclose(live, cold, rtol=1e-12, atol=1e-12 * s.capacity)
    if rows:
        cold_problem = AAProblem(GenericBatch([f for _, f, _, _ in rows]), s.n_servers, s.capacity)
        assert s.total_utility() == pytest.approx(
            s.assignment().total_utility(cold_problem), rel=1e-12, abs=1e-12
        )
        assert s.total_utility() == s.assignment().total_utility(s.problem())
    else:
        assert s.total_utility() == 0.0
    doc = scheduler_state_to_dict(s)
    restored = scheduler_state_from_dict(doc)
    assert scheduler_state_to_dict(restored) == doc
    assert np.array_equal(restored.assignment().allocations, s.assignment().allocations)
    assert np.array_equal(restored.assignment().servers, s.assignment().servers)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_churn_matches_cold_oracle(seed):
    rng = np.random.default_rng(seed)
    quads = iter(paper_utilities(UniformDistribution(), 400, CAP, seed=seed).functions())
    s = OnlineScheduler(M, CAP, migration_cost=0.01)
    alive, families, next_id = [], set(), 0
    for _ in range(70):
        op = rng.uniform()
        if op < 0.55 or not alive:
            if rng.uniform() < 0.2:
                utility = LogUtility(float(rng.uniform(0.5, 3.0)), 50.0, CAP)
            else:
                utility = next(quads)
            server, gain = s.placement_gain(utility)
            cold = _cold_gain(s, utility)
            assert gain >= 0.0
            assert gain == pytest.approx(max(max(cold), 0.0), abs=1e-9)
            assert cold[server] == pytest.approx(max(cold), abs=1e-9)
            assert s.add_thread(f"t{next_id}", utility) == server
            alive.append(f"t{next_id}")
            next_id += 1
        elif op < 0.85:
            s.remove_thread(alive.pop(int(rng.integers(len(alive)))))
        elif op < 0.93:
            s.update_capacity(float(rng.choice([CAP, 1.25 * CAP, 2.0 * CAP])))
        else:
            s.rebalance()
        if alive:
            families.add(type(s.problem().utilities))
        _check_against_oracle(s)
    assert s.thread_ids == alive
    assert families == {QuadSplineBatch, GenericBatch}


def test_quadspline_residents_pack():
    s = OnlineScheduler(2, CAP)
    for k, f in enumerate(paper_utilities(UniformDistribution(), 6, CAP, seed=0).functions()):
        s.add_thread(f"t{k}", f)
    assert isinstance(s.problem().utilities, QuadSplineBatch)
    s.add_thread("log", LogUtility(1.0, 50.0, CAP))
    assert isinstance(s.problem().utilities, GenericBatch)
    s.remove_thread("log")
    assert isinstance(s.problem().utilities, QuadSplineBatch)


def test_views_are_memoized_until_a_mutation():
    s = OnlineScheduler(2, CAP)
    fns = paper_utilities(UniformDistribution(), 5, CAP, seed=1).functions()
    for k, f in enumerate(fns[:4]):
        s.add_thread(f"t{k}", f)
    problem = s.problem()
    assert s.problem() is problem
    s.rebalance()  # moves threads, not the resident set
    assert s.problem() is problem
    s.add_thread("t4", fns[4])
    assert s.problem() is not problem


def test_one_submit_runs_one_placement(monkeypatch):
    import repro.extensions.online as online
    from repro.service import AllocationService, ClusterState, InProcessTransport, SubmitThread

    fns = paper_utilities(UniformDistribution(), 10, CAP, seed=4).functions()
    bus = InProcessTransport(AllocationService(ClusterState(M, CAP)))
    assert all(r.ok for r in bus.request(*[SubmitThread(f"t{k}", f) for k, f in enumerate(fns[:9])]))
    fills = []
    real = online.water_fill_grouped
    monkeypatch.setattr(
        online, "water_fill_grouped", lambda *a, **k: fills.append(1) or real(*a, **k)
    )
    (resp,) = bus.request(SubmitThread("t9", fns[9]))
    assert resp.ok
    assert len(fills) == 1


def _churn(s, rng, utilities, ops, prefix):
    """``ops`` random submits and removals (oldest-first ids are not assumed)."""
    for k in range(ops):
        if rng.uniform() < 0.5 or len(s) < 2:
            s.add_thread(f"{prefix}{k}", next(utilities))
        else:
            s.remove_thread(s.thread_ids[int(rng.integers(len(s)))])


def test_warm_started_fills_equal_cold_grouped_fills():
    """Every fill starts each server at its current price; the allocations
    must be those of a cold grouped fill (default start) of the same
    residents, to the search's tolerance."""
    rng = np.random.default_rng(5)
    utilities = iter(paper_utilities(UniformDistribution(), 600, CAP, seed=5).functions())
    s = OnlineScheduler(8, CAP)
    for k in range(96):
        s.add_thread(f"r{k}", next(utilities))
    for round_ in range(4):
        _churn(s, rng, utilities, 60, f"c{round_}-")
        live = s.assignment()
        cold = water_fill_grouped(s.problem().utilities, live.servers, np.full(8, CAP))
        np.testing.assert_allclose(live.allocations, cold.allocations, rtol=1e-9, atol=1e-9 * CAP)


def test_restored_scheduler_replays_churn_bit_identically():
    """Fill starts derive from (servers, allocations, utilities) alone, so a
    scheduler restored from a snapshot takes exactly the live one's next
    fills: the same 50 operations leave bit-identical states."""
    rng = np.random.default_rng(9)
    utilities = paper_utilities(UniformDistribution(), 300, CAP, seed=9).functions()
    live = OnlineScheduler(8, CAP)
    stream = iter(utilities)
    for k in range(100):
        live.add_thread(f"r{k}", next(stream))
    _churn(live, rng, stream, 40, "a")
    restored = scheduler_state_from_dict(scheduler_state_to_dict(live))
    tail = list(stream)
    for s in (live, restored):
        _churn(s, np.random.default_rng(10), iter(tail), 50, "b")
    assert live.thread_ids == restored.thread_ids
    a, b = live.assignment(), restored.assignment()
    assert np.array_equal(a.servers, b.servers)
    assert np.array_equal(a.allocations, b.allocations)
    assert scheduler_state_to_dict(live) == scheduler_state_to_dict(restored)
