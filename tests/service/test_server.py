"""AllocationService: coalescing, admission, policy replans, snapshots.

Covers the PR's acceptance criteria end to end: N batched arrivals are
one incremental step (asserted via the merged ``SolveContext`` counters),
a policy-triggered rebalance restores the certified ratio to ≥ α, and a
snapshot/restore round trip is bit-identical.
"""

import json

import pytest

from repro.core.problem import ALPHA
from repro.observability import (
    SERVICE_ADMISSION_REJECTS,
    SERVICE_ARRIVALS,
    SERVICE_DEPARTURES,
    SERVICE_MIGRATIONS,
    SERVICE_REPLANS,
    SERVICE_REQUESTS,
    SERVICE_STEPS,
    MemorySink,
)
from repro.service import (
    AdmissionPolicy,
    AllocationService,
    ClusterState,
    InProcessTransport,
    QueryAssignment,
    Rebalance,
    RemoveThread,
    ReplanPolicy,
    Snapshot,
    SubmitThread,
    UpdateCapacity,
)
from repro.utility.functions import LogUtility, ZeroUtility

CAP = 10.0


def _util(c=1.0):
    return LogUtility(c, 1.0, CAP)


def _service(n_servers=2, replan=None, admission=None, **kwargs):
    return AllocationService(
        ClusterState(n_servers, CAP),
        replan_policy=replan or ReplanPolicy(),
        admission_policy=admission or AdmissionPolicy(),
        **kwargs,
    )


# -- batching / coalescing ----------------------------------------------------


def test_batched_arrivals_are_one_step():
    svc = _service()
    bus = InProcessTransport(svc)
    responses = bus.request(*[SubmitThread(f"t{k}", _util(1 + k)) for k in range(8)])
    assert all(r.ok for r in responses)
    assert svc.counters[SERVICE_STEPS] == 1
    assert svc.counters[SERVICE_ARRIVALS] == 8
    assert svc.state.n_threads == 8


def test_one_step_per_batch():
    svc = _service()
    bus = InProcessTransport(svc)
    for b in range(3):
        bus.request(*[SubmitThread(f"b{b}t{k}", _util()) for k in range(4)])
    assert svc.counters[SERVICE_STEPS] == 3
    assert svc.counters[SERVICE_ARRIVALS] == 12


def test_empty_queue_step_is_not_counted():
    svc = _service()
    assert svc.step() == []
    assert svc.counters.get(SERVICE_STEPS, 0) == 0
    # A read-only batch does not step either.
    InProcessTransport(svc).request(QueryAssignment())
    assert svc.counters.get(SERVICE_STEPS, 0) == 0


def test_departures_processed_before_arrivals():
    svc = _service(n_servers=1)
    bus = InProcessTransport(svc)
    bus.request(SubmitThread("old", _util()))
    # In one batch: the departure must free the server before the arrival lands.
    responses = bus.request(RemoveThread("old"), SubmitThread("new", _util(2.0)))
    assert all(r.ok for r in responses)
    assert svc.state.thread_ids == ["new"]
    assert svc.counters[SERVICE_DEPARTURES] == 1


def test_mixed_batch_reads_see_post_step_state():
    svc = _service()
    bus = InProcessTransport(svc)
    responses = bus.request(SubmitThread("a", _util()), QueryAssignment())
    assert responses[1].data["n_threads"] == 1


def test_responses_align_with_requests():
    svc = _service()
    bus = InProcessTransport(svc)
    responses = bus.request(
        SubmitThread("a", _util(), request_id="r0"),
        QueryAssignment(request_id="r1"),
        SubmitThread("b", _util(), request_id="r2"),
    )
    assert [r.request_id for r in responses] == ["r0", "r1", "r2"]
    assert [r.op for r in responses] == ["submit", "query", "submit"]


def test_duplicate_submit_in_one_batch_rejected():
    svc = _service()
    responses = InProcessTransport(svc).request(
        SubmitThread("dup", _util()), SubmitThread("dup", _util())
    )
    assert responses[0].ok
    assert not responses[1].ok
    assert "already scheduled" in responses[1].error


def test_update_capacity_roundtrip():
    svc = _service()
    bus = InProcessTransport(svc)
    bus.request(SubmitThread("a", _util()))
    assert bus.request(UpdateCapacity(20.0))[0].ok
    assert svc.state.capacity == 20.0
    # Shrinking below a resident's utility cap must be refused.
    resp = bus.request(UpdateCapacity(CAP / 2))[0]
    assert not resp.ok
    assert svc.state.capacity == 20.0


# -- admission control --------------------------------------------------------


def test_queue_bound_rejects_overflow():
    svc = _service(admission=AdmissionPolicy(max_queue=2))
    responses = InProcessTransport(svc).request(
        *[SubmitThread(f"t{k}", _util()) for k in range(4)]
    )
    assert [r.ok for r in responses] == [True, True, False, False]
    assert all("queue full" in r.error for r in responses[2:])
    assert svc.counters[SERVICE_ADMISSION_REJECTS] == 2
    assert svc.state.n_threads == 2


def test_marginal_utility_floor_rejects_worthless_threads():
    svc = _service(admission=AdmissionPolicy(min_marginal_utility=0.1))
    responses = InProcessTransport(svc).request(
        SubmitThread("good", _util()), SubmitThread("zero", ZeroUtility(CAP))
    )
    assert responses[0].ok
    assert not responses[1].ok
    assert "below floor" in responses[1].error
    assert svc.counters[SERVICE_ADMISSION_REJECTS] == 1
    assert svc.state.thread_ids == ["good"]


def test_request_counter_counts_everything():
    svc = _service(admission=AdmissionPolicy(max_queue=1))
    InProcessTransport(svc).request(
        SubmitThread("a", _util()), SubmitThread("b", _util()), QueryAssignment()
    )
    assert svc.counters[SERVICE_REQUESTS] == 3


# -- replan policy ------------------------------------------------------------


def test_drift_triggered_replan_restores_alpha():
    """Departures strand load on one server; the drift trigger must fix it."""
    svc = _service(replan=ReplanPolicy(drift_threshold=ALPHA, max_staleness=None))
    bus = InProcessTransport(svc)
    bus.request(*[SubmitThread(f"t{k}", _util()) for k in range(4)])
    # Find the two residents of server 1 and remove them in one batch:
    # the two survivors now share server 0 while server 1 idles, which
    # certifies below α and must fire a drift replan within that step.
    a = svc.state.assignment()
    ids = svc.state.thread_ids
    victims = [t for t, j in zip(ids, a.servers) if j == 1]
    assert len(victims) == 2  # identical threads spread 2 + 2
    bus.request(*[RemoveThread(t) for t in victims])
    assert svc.counters[SERVICE_REPLANS] == 1
    assert svc.counters[SERVICE_MIGRATIONS] >= 1
    assert svc.last_ratio >= ALPHA - 1e-9
    # After the replan the two survivors own one server each.
    final = svc.state.assignment()
    assert sorted(final.servers.tolist()) == [0, 1]


def test_certified_ratio_stays_above_alpha_under_churn():
    svc = _service(
        n_servers=3, replan=ReplanPolicy(drift_threshold=ALPHA, max_staleness=None)
    )
    bus = InProcessTransport(svc)
    import numpy as np

    rng = np.random.default_rng(7)
    alive = []
    for step in range(12):
        batch = []
        for _ in range(int(rng.integers(1, 4))):
            if alive and rng.uniform() < 0.4:
                batch.append(RemoveThread(alive.pop(int(rng.integers(len(alive))))))
            else:
                tid = f"s{step}n{len(batch)}"
                batch.append(SubmitThread(tid, _util(float(rng.uniform(0.5, 3.0)))))
                alive.append(tid)
        bus.request(*batch)
        if svc.state.n_threads:
            assert svc.last_ratio >= ALPHA - 1e-9


def test_staleness_triggered_replan():
    svc = _service(replan=ReplanPolicy(drift_threshold=0.0, max_staleness=2))
    bus = InProcessTransport(svc)
    bus.request(SubmitThread("a", _util()))
    assert svc.counters.get(SERVICE_REPLANS, 0) == 0
    bus.request(SubmitThread("b", _util()))
    assert svc.counters[SERVICE_REPLANS] == 1
    assert svc.state.steps_since_replan == 0


def test_forced_rebalance_reports_outcome():
    svc = _service()
    resp = InProcessTransport(svc).request(
        SubmitThread("a", _util()), Rebalance()
    )[1]
    assert resp.ok
    assert resp.data["replanned"] is True
    assert resp.data["reason"] == "requested"
    assert resp.data["ratio"] == pytest.approx(1.0)


def test_migration_budget_declines_expensive_replans():
    svc = _service(
        replan=ReplanPolicy(drift_threshold=1.0, max_staleness=None, migration_budget=0)
    )
    bus = InProcessTransport(svc)
    bus.request(*[SubmitThread(f"t{k}", _util()) for k in range(4)])
    a = svc.state.assignment()
    victims = [t for t, j in zip(svc.state.thread_ids, a.servers) if j == 1]
    before = svc.state.assignment().servers.copy()
    bus.request(*[RemoveThread(t) for t in victims])
    # drift_threshold=1.0 wants a replan every step, but budget 0 declines
    # any plan that would move a thread — placements must be unchanged.
    survivors = svc.state.assignment()
    assert svc.counters[SERVICE_MIGRATIONS] == 0
    assert all(s in before for s in survivors.servers)


def test_tiny_deadline_abandons_replan_but_keeps_serving():
    svc = _service(solve_budget_s=1e-9)
    responses = InProcessTransport(svc).request(
        SubmitThread("a", _util()), Rebalance()
    )
    assert responses[0].ok  # greedy placement has no solver deadline
    assert not responses[1].ok
    assert "abandoned" in responses[1].error
    assert svc.state.n_threads == 1  # state stays feasible and live


# -- observability ------------------------------------------------------------


def test_sink_receives_request_step_and_span_events():
    sink = MemorySink()
    svc = _service(sink=sink)
    InProcessTransport(svc).request(
        SubmitThread("a", _util()), SubmitThread("b", _util())
    )
    kinds = {e["type"] for e in sink.events}
    assert {"request", "step", "span"} <= kinds
    step = sink.of_type("step")[0]
    assert step["batch_size"] == 2
    assert step["n_threads"] == 2
    latencies = [e["latency_s"] for e in sink.of_type("request")]
    assert len(latencies) == 2 and all(t >= 0 for t in latencies)


def test_solver_counters_merge_into_service_counters():
    svc = _service()
    InProcessTransport(svc).request(SubmitThread("a", _util()), Rebalance())
    # The forced alg2 re-solve ran under the step context, whose solver
    # counters (waterfill, linearize, …) must surface in the lifetime view.
    assert svc.counters["linearize_calls"] >= 1


# -- snapshot / restore -------------------------------------------------------


def test_snapshot_restore_roundtrip_bit_identical():
    svc = _service(n_servers=3)
    bus = InProcessTransport(svc)
    bus.request(*[SubmitThread(f"t{k}", _util(1 + k)) for k in range(6)])
    bus.request(RemoveThread("t2"), Rebalance())
    snap = bus.request(Snapshot())[0]
    assert snap.ok
    restored = ClusterState.from_dict(
        json.loads(json.dumps(snap.data["state"]))
    )
    assert restored.to_dict() == svc.state.to_dict()


def test_warm_restart_continues_serving():
    svc = _service()
    bus = InProcessTransport(svc)
    bus.request(*[SubmitThread(f"t{k}", _util()) for k in range(3)])
    restored = ClusterState.from_dict(svc.state.to_dict())
    svc2 = AllocationService(restored)
    responses = InProcessTransport(svc2).request(
        SubmitThread("late", _util()), QueryAssignment()
    )
    assert responses[0].ok
    assert responses[1].data["n_threads"] == 4
    assert responses[1].data["version"] == svc.state.version + 1


def test_snapshot_to_disk(tmp_path):
    from repro.service import load_snapshot

    svc = _service()
    bus = InProcessTransport(svc)
    bus.request(SubmitThread("a", _util()))
    path = tmp_path / "snap.json"
    resp = bus.request(Snapshot(path=str(path)))[0]
    assert resp.ok and path.exists()
    assert load_snapshot(path).to_dict() == svc.state.to_dict()
