"""FleetCoordinator: routing, broadcast, rebalance, snapshot, TCP, metrics."""

import json

import pytest

from repro.observability import (
    FLEET_MIGRATIONS,
    FLEET_REBALANCES,
    FLEET_STEPS,
    FlightRecorder,
    GapMonitor,
    MemorySink,
)
from repro.service import (
    AllocationService,
    ClusterState,
    FleetCoordinator,
    FleetPolicy,
    InProcessTransport,
    QueryAssignment,
    QueryMetrics,
    Rebalance,
    RemoveThread,
    ShardRouter,
    Snapshot,
    SubmitThread,
    UpdateCapacity,
    fleet_snapshot_from_dict,
    fleet_snapshot_to_dict,
    load_fleet_snapshot,
    save_fleet_snapshot,
)
from repro.utility.functions import LogUtility

CAP = 10.0


def _util(c=1.0):
    return LogUtility(c, 1.0, CAP)


def _shard(n_servers=2):
    return AllocationService(ClusterState(n_servers, CAP))


def _fleet(n_shards=3, policy=None, **kwargs):
    return FleetCoordinator(
        [_shard() for _ in range(n_shards)], policy=policy, **kwargs
    )


def _submit_burst(fleet, n, prefix="t"):
    reqs = [SubmitThread(f"{prefix}{i}", _util(1.0 + 0.2 * i)) for i in range(n)]
    resps = fleet.process(reqs)
    assert all(r.ok for r in resps), [r.error for r in resps if not r.ok]
    return resps


# -- routing -------------------------------------------------------------------


def test_submits_follow_the_router_and_are_shard_tagged():
    fleet = _fleet()
    resps = _submit_burst(fleet, 12)
    for i, resp in enumerate(resps):
        assert resp.data["shard"] == fleet.router.route(f"t{i}")
        assert fleet.locate(f"t{i}") == resp.data["shard"]


def test_remove_routes_to_the_resident_shard():
    fleet = _fleet()
    _submit_burst(fleet, 6)
    shard = fleet.locate("t3")
    resp = fleet.handle(RemoveThread("t3"))
    assert resp.ok and resp.data["shard"] == shard
    assert fleet.locate("t3") is None
    assert not fleet.handle(RemoveThread("t3")).ok  # now unknown


def test_pinned_thread_lands_on_its_pinned_shard():
    router = ShardRouter(3, pins={"vip": 2})
    fleet = FleetCoordinator([_shard() for _ in range(3)], router=router)
    resp = fleet.handle(SubmitThread("vip", _util()))
    assert resp.ok and resp.data["shard"] == 2


def test_duplicate_submit_is_refused_at_the_resident_shard():
    # Resident threads are addressed at their current home, so a repeated
    # submit is refused there instead of double-placing on another shard.
    fleet = _fleet()
    _submit_burst(fleet, 6)
    home = fleet.locate("t0")
    resp = fleet.handle(SubmitThread("t0", _util()))
    assert not resp.ok and resp.data["shard"] == home
    assert fleet.n_threads == 6


def test_per_thread_query_and_unknown_thread():
    fleet = _fleet()
    _submit_burst(fleet, 4)
    q = fleet.handle(QueryAssignment(thread_id="t2"))
    assert q.ok and "allocation" in q.data and q.data["shard"] == fleet.locate("t2")
    assert not fleet.handle(QueryAssignment(thread_id="nope")).ok


# -- batching / broadcast ------------------------------------------------------


def test_one_fleet_step_per_batch():
    fleet = _fleet()
    _submit_burst(fleet, 9)
    assert fleet.steps == 1
    assert fleet.counters.snapshot()[FLEET_STEPS] == 1
    _submit_burst(fleet, 3, prefix="u")
    assert fleet.steps == 2


def test_read_only_batch_is_not_a_step():
    fleet = _fleet()
    _submit_burst(fleet, 3)
    fleet.process([QueryAssignment(), QueryMetrics()])
    assert fleet.steps == 1


def test_capacity_update_broadcasts_to_every_shard():
    fleet = _fleet()
    _submit_burst(fleet, 6)
    resp = fleet.handle(UpdateCapacity(2 * CAP))
    assert resp.ok and len(resp.data["shards"]) == 3
    for s in fleet.status()["shards"]:
        assert s["capacity"] == 2 * CAP


def test_infeasible_capacity_update_reports_failing_shards():
    fleet = _fleet()
    _submit_burst(fleet, 6)
    resp = fleet.handle(UpdateCapacity(-1.0))
    assert not resp.ok and "shard" in resp.error


def test_responses_align_with_requests_in_mixed_batch():
    fleet = _fleet()
    _submit_burst(fleet, 4)
    resps = fleet.process(
        [
            RemoveThread("t1"),
            SubmitThread("x1", _util()),
            QueryAssignment(),
            RemoveThread("ghost"),
        ]
    )
    assert [r.op for r in resps] == ["remove", "submit", "query", "remove"]
    assert [r.ok for r in resps] == [True, True, True, False]
    # The read sees the post-step fleet: t1 gone, x1 resident.
    assert resps[2].data["n_threads"] == 4


# -- aggregate status / certificate --------------------------------------------


def test_status_aggregates_and_is_a_superset_of_service_status():
    fleet = _fleet()
    _submit_burst(fleet, 12)
    st = fleet.status()
    assert st["fleet"] and st["n_shards"] == 3
    assert st["n_threads"] == 12
    assert st["n_servers"] == 6
    assert len(st["server_loads"]) == 6
    # Single-service status keys a generic client renders:
    for key in (
        "version",
        "capacity",
        "total_utility",
        "queue_length",
        "steps_since_replan",
        "last_bound",
        "last_ratio",
        "last_certified_version",
    ):
        assert key in st, key
    per_shard = sum(s["n_threads"] for s in st["shards"])
    assert per_shard == 12


def test_certificate_composes_and_holds_alpha_under_churn():
    fleet = _fleet()
    _submit_burst(fleet, 15)
    fleet.process([RemoveThread(f"t{i}") for i in range(0, 15, 3)])
    _submit_burst(fleet, 5, prefix="u")
    cert = fleet.certificate()
    assert cert.complete
    assert cert.utility == pytest.approx(
        sum(s["total_utility"] for s in fleet.status()["shards"])
    )
    assert cert.holds()  # min shard ratio ≥ α ⇒ fleet ratio ≥ α
    assert cert.ratio >= cert.min_shard_ratio - 1e-9
    assert cert.ratio <= cert.max_shard_ratio + 1e-9
    assert fleet.gap.stats()["ok"]


def test_reads_do_not_count_as_certified_steps():
    """Only a mutating batch feeds the gap monitor; status reads do not."""
    sink = MemorySink()
    fleet = _fleet(sink=sink, gap=GapMonitor(threshold=1.5))  # every step breaches
    _submit_burst(fleet, 1)
    before = fleet.gap.stats()
    assert (before["steps"], before["breaches"]) == (1, 1)
    alerts = len(sink.of_type("gap_alert"))
    for _ in range(5):
        fleet.status()
    (resp,) = fleet.process([QueryAssignment()])
    assert resp.ok
    fleet.certificate()
    after = fleet.gap.stats()
    assert (after["steps"], after["breaches"]) == (1, 1)
    assert len(sink.of_type("gap_alert")) == alerts
    assert fleet.last_certificate is not None


def test_empty_fleet_certifies_trivially():
    fleet = _fleet()
    cert = fleet.certificate()
    assert cert.complete and cert.ratio == 1.0 and cert.holds()


# -- cross-shard rebalance -----------------------------------------------------


def _skewed_fleet(policy=None):
    """Everything pinned onto shard 0 — maximal cross-shard imbalance."""
    router = ShardRouter(3, pins={f"t{i}": 0 for i in range(12)})
    fleet = FleetCoordinator(
        [_shard() for _ in range(3)],
        router=router,
        policy=policy
        or FleetPolicy(rebalance_interval=None, imbalance_threshold=None),
    )
    _submit_burst(fleet, 12)
    return fleet


def test_forced_rebalance_strictly_improves_a_skewed_fleet():
    fleet = _skewed_fleet()
    before = fleet.certificate().utility
    resp = fleet.handle(Rebalance())
    assert resp.ok and resp.data["migrations"] > 0
    after = fleet.certificate().utility
    assert after > before
    assert resp.data["utility_after"] == pytest.approx(after)
    assert fleet.counters.snapshot()[FLEET_REBALANCES] == 1
    assert fleet.counters.snapshot()[FLEET_MIGRATIONS] == resp.data["migrations"]
    # The location map tracked every move.
    for tid, shard in [(f"t{i}", fleet.locate(f"t{i}")) for i in range(12)]:
        q = fleet.handle(QueryAssignment(thread_id=tid))
        assert q.ok and q.data["shard"] == shard


def test_migration_budget_caps_moves():
    fleet = _skewed_fleet(
        FleetPolicy(
            rebalance_interval=None, imbalance_threshold=None, migration_budget=2
        )
    )
    resp = fleet.handle(Rebalance())
    assert resp.ok and 0 < resp.data["migrations"] <= 2


def test_zero_budget_rebalance_moves_nothing():
    fleet = _skewed_fleet(
        FleetPolicy(
            rebalance_interval=None, imbalance_threshold=None, migration_budget=0
        )
    )
    resp = fleet.handle(Rebalance())
    assert resp.ok and resp.data["migrations"] == 0


def test_rebalance_never_decreases_fleet_utility():
    fleet = _fleet(policy=FleetPolicy(rebalance_interval=None,
                                      imbalance_threshold=None))
    _submit_burst(fleet, 10)
    before = fleet.certificate().utility
    resp = fleet.handle(Rebalance())
    assert resp.ok
    assert fleet.certificate().utility >= before - 1e-9


def test_imbalance_trigger_fires_automatically():
    sink = MemorySink()
    router = ShardRouter(2, pins={f"t{i}": 0 for i in range(8)})
    fleet = FleetCoordinator(
        [_shard(), _shard()],
        router=router,
        policy=FleetPolicy(rebalance_interval=None, imbalance_threshold=0.3),
        sink=sink,
    )
    _submit_burst(fleet, 8)
    kinds = [e["type"] for e in sink.events]
    assert "fleet_rebalance" in kinds
    assert fleet.migrations > 0


def test_interval_trigger_fires_after_n_steps():
    fleet = _fleet(
        2, policy=FleetPolicy(rebalance_interval=3, imbalance_threshold=None)
    )
    for i in range(3):
        fleet.handle(SubmitThread(f"s{i}", _util()))
    assert fleet.rebalances == 1
    assert fleet.steps_since_rebalance == 0


def test_policy_validation():
    with pytest.raises(ValueError):
        FleetPolicy(rebalance_interval=0)
    with pytest.raises(ValueError):
        FleetPolicy(imbalance_threshold=1.5)
    with pytest.raises(ValueError):
        FleetPolicy(migration_budget=-1)
    with pytest.raises(ValueError):
        FleetPolicy(min_gain=-0.1)


# -- snapshot / warm restart ---------------------------------------------------


def test_fleet_snapshot_roundtrip_is_bit_identical():
    fleet = _fleet()
    _submit_burst(fleet, 10)
    fleet.handle(Rebalance())
    doc = fleet_snapshot_to_dict(fleet)
    clone = fleet_snapshot_from_dict(doc)
    assert json.dumps(fleet_snapshot_to_dict(clone), sort_keys=True) == json.dumps(
        doc, sort_keys=True
    )


def test_fleet_snapshot_restores_locations_and_keeps_serving(tmp_path):
    fleet = _fleet()
    _submit_burst(fleet, 9)
    path = tmp_path / "fleet.json"
    save_fleet_snapshot(fleet, path)
    warm = load_fleet_snapshot(path)
    assert warm.n_shards == 3 and warm.n_threads == 9
    for i in range(9):
        assert warm.locate(f"t{i}") == fleet.locate(f"t{i}")
    # The restored fleet can serve — including migrating restored threads
    # (their utilities were recovered from the shard snapshots).
    assert warm.handle(SubmitThread("fresh", _util())).ok
    assert warm.handle(RemoveThread("t4")).ok
    assert warm.handle(Rebalance()).ok
    assert warm.certificate().holds()


def test_warm_fleet_shards_keep_their_own_flight_rings(tmp_path):
    fleet = _fleet()
    _submit_burst(fleet, 3)
    path = tmp_path / "fleet.json"
    save_fleet_snapshot(fleet, path)
    warm = load_fleet_snapshot(path, flight=FlightRecorder())
    assert [ring["events"] for ring in warm.flight_snapshot()["shards"]] == [[], [], []]
    assert warm.handle(SubmitThread("fresh", _util())).ok
    rings = warm.flight_snapshot()["shards"]
    assert len(rings) == 3
    # Restoring ran no step; the submit did (placing, maybe migrating).
    assert any(e["kind"] == "step" for ring in rings for e in ring["events"])


def test_snapshot_request_returns_fleet_document():
    fleet = _fleet()
    _submit_burst(fleet, 4)
    resp = fleet.handle(Snapshot())
    assert resp.ok and resp.data["fleet"]["format"] == "aart-fleet-snapshot/1"
    assert len(resp.data["fleet"]["shards"]) == 3


def test_sync_from_shards_adopts_existing_residents():
    shards = [_shard() for _ in range(2)]
    InProcessTransport(shards[0]).request(SubmitThread("a", _util()))
    InProcessTransport(shards[1]).request(SubmitThread("b", _util()))
    fleet = FleetCoordinator(shards)
    assert fleet.n_threads == 2
    assert fleet.locate("a") == 0 and fleet.locate("b") == 1
    assert fleet.handle(RemoveThread("a")).ok


# -- transports / introspection ------------------------------------------------


def test_fleet_behind_tcp_serves_the_whole_protocol():
    from repro.service import Client, TcpServer

    fleet = _fleet()
    server = TcpServer(fleet, port=0).start()
    try:
        with Client(port=server.port) as client:
            for i in range(6):
                assert client.submit(f"n{i}", _util(1.0 + i)).ok
            status = client.status()
            assert status["fleet"] and status["n_threads"] == 6
            assert client.rebalance().ok
            data = client.metrics()
            assert data["fleet"] and data["n_shards"] == 3
            snap = client.snapshot()
            assert snap.data["fleet"]["format"] == "aart-fleet-snapshot/1"
    finally:
        server.stop()


def test_metrics_snapshot_carries_shard_labels_and_fleet_gauges():
    fleet = _fleet()
    _submit_burst(fleet, 9)
    text = fleet.metrics_text()
    for k in range(3):
        assert f'shard="{k}"' in text
    assert "aart_fleet_gap_ratio" in text
    assert "aart_fleet_utility_total" in text
    assert "aart_fleet_threads 9" in text


def test_health_covers_every_shard_and_the_composed_certificate():
    fleet = _fleet()
    _submit_burst(fleet, 6)
    health = fleet.health()
    assert health["status"] == "ok"
    assert len(health["shards"]) == 3 and all(s["ok"] for s in health["shards"])
    assert health["certificate"]["holds_alpha"]


def test_http_sidecar_serves_fleet_metrics_and_health():
    import urllib.request

    from repro.service import MetricsHttpServer

    fleet = _fleet()
    _submit_burst(fleet, 6)
    with MetricsHttpServer(fleet, port=0) as httpd:
        base = f"http://{httpd.host}:{httpd.port}"
        body = urllib.request.urlopen(f"{base}/metrics").read().decode()
        assert 'shard="1"' in body
        health = json.loads(urllib.request.urlopen(f"{base}/healthz").read())
        assert health["fleet"] and health["status"] == "ok"


def test_constructor_validation():
    with pytest.raises(ValueError):
        FleetCoordinator([])
    with pytest.raises(TypeError):
        FleetCoordinator([object()])
    with pytest.raises(ValueError):
        FleetCoordinator([_shard()], router=ShardRouter(2))
