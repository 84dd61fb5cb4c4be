"""Service introspection: QueryMetrics, health, and the HTTP endpoints."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.problem import ALPHA
from repro.observability import (
    GAUGE_BOUND,
    GAUGE_RATIO,
    GAUGE_THREADS,
    GAUGE_UTILITY,
    QUEUE_DEPTH,
    REQUEST_LATENCY,
    PROMETHEUS_CONTENT_TYPE,
    SERVER_RESIDUAL,
    GapMonitor,
)
from repro.service import (
    AdmissionPolicy,
    AllocationService,
    Client,
    ClusterState,
    InProcessTransport,
    MetricsHttpServer,
    QueryMetrics,
    Rebalance,
    RemoveThread,
    ReplanPolicy,
    SubmitThread,
    TcpServer,
    request_from_dict,
    request_to_dict,
)
from repro.utility.functions import LogUtility

CAP = 10.0


def _util(c=1.0):
    return LogUtility(c, 1.0, CAP)


def _service(**kwargs):
    return AllocationService(
        ClusterState(2, CAP),
        replan_policy=ReplanPolicy(),
        admission_policy=AdmissionPolicy(),
        **kwargs,
    )


def _loaded_service():
    svc = _service()
    bus = InProcessTransport(svc)
    bus.request(*[SubmitThread(f"t{k}", _util(1 + k)) for k in range(6)])
    bus.request(Rebalance())
    return svc, bus


# -- QueryMetrics codec --------------------------------------------------------


def test_query_metrics_roundtrips_through_wire_dict():
    req = QueryMetrics(request_id="m1")
    wire = request_to_dict(req)
    assert wire["op"] == "metrics"
    assert request_from_dict(json.loads(json.dumps(wire))) == req


# -- in-process surfaces -------------------------------------------------------


def test_metrics_snapshot_combines_registry_and_counters():
    svc, _ = _loaded_service()
    names = {i["name"] for i in svc.metrics_snapshot()["instruments"]}
    # registry-side gauges/histograms and service counters, one document
    assert REQUEST_LATENCY in names
    assert GAUGE_THREADS in names and QUEUE_DEPTH in names
    assert "aart_service_steps_total" in names
    assert "aart_service_arrivals_total" in names


def test_gauges_track_cluster_state():
    svc, _ = _loaded_service()
    snap = {
        (i["name"], tuple(sorted(i["labels"].items()))): i
        for i in svc.metrics_snapshot()["instruments"]
    }
    assert snap[(GAUGE_THREADS, ())]["value"] == 6.0
    assert snap[(QUEUE_DEPTH, ())]["value"] == 0.0
    residuals = [i for (n, _), i in snap.items() if n == "aart_server_residual"]
    assert len(residuals) == svc.state.n_servers
    for inst in residuals:
        assert 0.0 <= inst["value"] <= CAP


def _samples(front):
    """``{(name, labels): value}`` of every gauge and counter in a scrape."""
    return {
        (i["name"], tuple(sorted(i["labels"].items()))): i["value"]
        for i in front.metrics_snapshot()["instruments"]
        if i["kind"] != "histogram"
    }


def test_restored_service_exports_state_gauges_before_its_first_step():
    svc, _ = _loaded_service()
    restored = AllocationService(ClusterState.from_dict(svc.state.to_dict()))
    samples = _samples(restored)
    assert samples[(GAUGE_THREADS, ())] == 6.0
    assert samples[(GAUGE_UTILITY, ())] == restored.state.total_utility()
    assert samples[(QUEUE_DEPTH, ())] == 0.0
    residuals = {k for k in samples if k[0] == SERVER_RESIDUAL}
    assert residuals == {(SERVER_RESIDUAL, (("server", str(j)),)) for j in range(2)}


def test_bound_gauge_reads_the_certificate_after_every_resident_left():
    svc = AllocationService(ClusterState(2, 100.0))
    bus = InProcessTransport(svc)
    tids = ["a", "b", "c"]
    bus.request(*[SubmitThread(t, LogUtility(1.0, 2.0, 100.0)) for t in tids])
    assert _samples(svc)[(GAUGE_BOUND, ())] > 0.0
    for t in tids:
        bus.request(RemoveThread(t))
    assert svc.status()["last_bound"] == 0.0
    assert _samples(svc)[(GAUGE_BOUND, ())] == 0.0
    assert _samples(svc)[(GAUGE_THREADS, ())] == 0.0


def test_request_latency_labelled_per_op():
    svc, _ = _loaded_service()
    ops = {
        i["labels"]["op"]
        for i in svc.metrics_snapshot()["instruments"]
        if i["name"] == REQUEST_LATENCY
    }
    assert {"submit", "rebalance"} <= ops


def test_query_metrics_request_returns_snapshot_and_gap():
    svc, bus = _loaded_service()
    (resp,) = bus.request(QueryMetrics(request_id="q"))
    assert resp.ok and resp.request_id == "q"
    assert resp.data["version"] == svc.state.version
    assert resp.data["gap"]["threshold"] == pytest.approx(ALPHA)
    insts = resp.data["metrics"]["instruments"]
    assert all("partials" not in i for i in insts)  # wire form is stripped
    ratio = [i for i in insts if i["name"] == GAUGE_RATIO]
    assert ratio and ratio[0]["value"] >= ALPHA


def test_health_reports_ok_and_certified_ratio():
    svc, _ = _loaded_service()
    h = svc.health()
    assert h["status"] == "ok"
    assert h["n_threads"] == 6
    assert h["last_ratio"] >= ALPHA
    assert h["gap"]["breaches"] == 0


def test_health_degrades_on_gap_breach():
    # A monitor with an impossible threshold flags every certified step.
    svc = _service(gap=GapMonitor(threshold=1.5))
    bus = InProcessTransport(svc)
    bus.request(SubmitThread("t0", _util()))
    bus.request(Rebalance())
    h = svc.health()
    assert h["status"] == "degraded"
    assert h["gap"]["breaches"] >= 1


# -- HTTP endpoints ------------------------------------------------------------


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


def test_http_metrics_and_healthz():
    svc, _ = _loaded_service()
    with MetricsHttpServer(svc, port=0) as httpd:
        base = f"http://127.0.0.1:{httpd.port}"
        status, ctype, text = _get(base + "/metrics")
        assert status == 200 and ctype == PROMETHEUS_CONTENT_TYPE
        assert "aart_gap_ratio" in text
        assert "aart_request_latency_seconds_bucket" in text
        assert "aart_service_steps_total" in text

        status, ctype, body = _get(base + "/healthz")
        assert status == 200 and ctype.startswith("application/json")
        doc = json.loads(body)
        assert doc["status"] == "ok" and doc["last_ratio"] >= ALPHA

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base + "/nope")
        assert err.value.code == 404


def test_http_healthz_returns_503_when_degraded():
    svc = _service(gap=GapMonitor(threshold=1.5))
    bus = InProcessTransport(svc)
    bus.request(SubmitThread("t0", _util()))
    bus.request(Rebalance())
    with MetricsHttpServer(svc, port=0) as httpd:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"http://127.0.0.1:{httpd.port}/healthz")
        assert err.value.code == 503
        assert json.loads(err.value.read().decode())["status"] == "degraded"


def test_http_alongside_tcp_shares_the_service_lock():
    svc = _service()
    with TcpServer(svc, port=0) as srv:
        with MetricsHttpServer(svc, port=0, lock=srv.lock) as httpd:
            with Client(port=srv.port) as client:
                client.submit("t0", _util())
                client.rebalance()
                data = client.metrics()
            assert data["gap"]["ok"]
            status, _, text = _get(f"http://127.0.0.1:{httpd.port}/metrics")
            assert status == 200 and "aart_threads" in text


def test_http_debug_flight_serves_the_ring():
    from repro.observability import FLIGHT_FORMAT, FlightRecorder

    svc = _service(flight=FlightRecorder())
    bus = InProcessTransport(svc)
    bus.request(SubmitThread("t0", _util()))
    with MetricsHttpServer(svc, port=0) as httpd:
        status, ctype, body = _get(f"http://127.0.0.1:{httpd.port}/debug/flight")
    assert status == 200 and ctype.startswith("application/json")
    doc = json.loads(body)
    assert doc["format"] == FLIGHT_FORMAT
    assert any(e["kind"] == "step" for e in doc["events"])


def _flight_service():
    from repro.observability import FlightRecorder

    return _service(flight=FlightRecorder())


def _flight_fleet():
    from repro.observability import FlightRecorder
    from repro.service import FleetCoordinator

    shards = [_service(flight=FlightRecorder()) for _ in range(2)]
    return FleetCoordinator(shards, flight=FlightRecorder())


@pytest.mark.parametrize("make_front", [_flight_service, _flight_fleet],
                         ids=["service", "fleet"])
def test_debug_flight_and_query_flight_return_the_same_rings(make_front):
    from repro.service import QueryFlight

    front = make_front()
    bus = InProcessTransport(front)
    bus.request(*[SubmitThread(f"t{k}", _util(1 + k)) for k in range(4)])
    bus.request(Rebalance())
    bus.request(SubmitThread("late", _util()))
    with MetricsHttpServer(front, port=0) as httpd:
        status, _, body = _get(f"http://127.0.0.1:{httpd.port}/debug/flight")
    resp = bus.request(QueryFlight())[0]
    assert status == 200 and resp.ok
    doc = json.loads(body)
    answer = json.loads(json.dumps(resp.data, sort_keys=True, default=str))
    assert doc["format"] == answer["flight"]["format"] == "aart-flight/1"
    assert any(e["kind"] in ("step", "fleet_step") for e in doc["events"])
    if "shards" in answer:  # a fleet: the shard rings ride beside its own
        assert len(answer["shards"]) == 2 and all(answer["shards"])
        assert doc == {**answer["flight"], "shards": answer["shards"]}
    else:
        assert doc == answer["flight"]


def test_http_debug_flight_404_without_recorder():
    svc = _service()
    with MetricsHttpServer(svc, port=0) as httpd:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"http://127.0.0.1:{httpd.port}/debug/flight")
    assert err.value.code == 404


def test_healthz_degradation_dumps_the_flight_ring_once(tmp_path):
    from repro.observability import FlightRecorder, load_flight

    svc = _service(gap=GapMonitor(threshold=1.5), flight=FlightRecorder())
    bus = InProcessTransport(svc)
    bus.request(SubmitThread("t0", _util()))
    bus.request(Rebalance())
    dump = tmp_path / "flight.json"
    with MetricsHttpServer(svc, port=0, flight_dump_path=str(dump)) as httpd:
        for _ in range(2):  # second probe must not re-dump
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://127.0.0.1:{httpd.port}/healthz")
            assert err.value.code == 503
        doc = load_flight(str(dump))
        assert any(e["kind"] == "gap_alert" for e in doc["events"])
        marker = doc["events"][-1]["seq"]
        svc.flight.record("step", step=99)
        with pytest.raises(urllib.error.HTTPError):
            _get(f"http://127.0.0.1:{httpd.port}/healthz")
        # the dump on disk still ends at the first breach's marker
        assert load_flight(str(dump))["events"][-1]["seq"] == marker


def test_client_metrics_over_tcp():
    svc = _service()
    with TcpServer(svc, port=0) as srv:
        with Client(port=srv.port) as client:
            client.submit("a", _util())
            data = client.metrics()
    names = {i["name"] for i in data["metrics"]["instruments"]}
    assert REQUEST_LATENCY in names
    assert data["version"] == svc.state.version
