"""Distributed request tracing: one stitched tree per client call.

A traced client call against a 2-shard fleet over real TCP must come
back as a single span tree rooted at ``client.request``, with the
coordinator's route/dispatch/certify spans in the middle and each
shard's ``solve.<name>`` skeleton at the leaves — ferried back through
``Response.trace`` and grafted by :func:`stamp_remote`.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.observability import (
    REQUEST_PHASE_SECONDS,
    SHARD_LABEL,
    GapMonitor,
    MemorySink,
    Tracer,
    chrome_trace,
)
from repro.service import (
    AllocationService,
    Client,
    ClusterState,
    FleetCoordinator,
    InProcessTransport,
    QueryFlight,
    Rebalance,
    ReplanPolicy,
    SubmitThread,
    TcpServer,
    TraceContext,
    request_from_dict,
    request_to_dict,
)
from repro.utility.functions import LogUtility

GOLDEN = Path(__file__).parent / "golden"
CAP = 10.0


def _util(c=1.0):
    return LogUtility(c, 1.0, CAP)


def _eager_shard():
    """A shard that full-replans every step, so traces carry solve spans."""
    return AllocationService(
        ClusterState(2, CAP), replan_policy=ReplanPolicy(max_staleness=1)
    )


def _shard_ids(fleet, n_shards=2, universe=40):
    """One thread id routed to each shard, probed through the router."""
    ids = {}
    for i in range(universe):
        ids.setdefault(fleet.router.route(f"t{i}"), f"t{i}")
        if len(ids) == n_shards:
            return ids
    raise AssertionError("router never hit every shard")


def _tree_names(nodes):
    return [(n["name"], _tree_names(n["children"])) for n in nodes]


def _skeleton_subtree(skel, name):
    """Depth-first search for ``name`` in a nested skeleton dict."""
    if name in skel:
        return skel[name]
    for node in skel.values():
        found = _skeleton_subtree(node.get("children", {}), name)
        if found is not None:
            return found
    return None


# -- trace context on the wire -------------------------------------------------


def test_trace_context_roundtrips_through_request_codec():
    ctx = TraceContext("abc123", parent_span_id=7)
    req = SubmitThread("t0", _util(), request_id="r1", trace=ctx)
    wire = json.loads(json.dumps(request_to_dict(req)))
    assert wire["trace"] == {"trace_id": "abc123", "parent_span_id": 7}
    back = request_from_dict(wire)
    assert back.trace == ctx
    assert back.request_id == "r1" and back.thread_id == "t0"
    # a parentless context omits the id on the wire and parses back
    slim = request_to_dict(SubmitThread("t0", _util(), trace=TraceContext("x")))
    assert slim["trace"] == {"trace_id": "x"}
    assert request_from_dict(slim).trace == TraceContext("x")
    # absent trace stays absent
    bare = request_to_dict(SubmitThread("t0", _util()))
    assert "trace" not in bare


# -- in-process stitching ------------------------------------------------------


def test_in_process_transport_stitches_one_tree():
    svc = _eager_shard()
    tracer = Tracer()
    bus = InProcessTransport(svc, tracer=tracer)
    resps = bus.request(SubmitThread("t0", _util(), request_id="r0"))
    assert resps[0].ok
    roots = tracer.tree()
    assert [r["name"] for r in roots] == ["client.request"]
    names = {s["name"] for s in tracer.snapshot()["spans"]}
    assert {"service.step", "solve.alg2", "phase.queue_wait",
            "phase.serialize"} <= names
    # responses come back stripped for the caller; the spans now live in
    # the client tracer (ferried once, merged once)
    assert resps[0].trace is None or resps[0].trace["spans"]


def test_untraced_path_carries_no_trace_payload():
    svc = _eager_shard()
    bus = InProcessTransport(svc)
    (resp,) = bus.request(SubmitThread("t0", _util()))
    assert resp.ok and resp.trace is None


# -- fleet over real TCP -------------------------------------------------------


@pytest.fixture()
def traced_fleet():
    shards = [_eager_shard() for _ in range(2)]
    fleet = FleetCoordinator(shards)
    server = TcpServer(fleet, port=0, coalesce_window_s=0.05)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    tracer = Tracer(trace_id="stitch-golden")
    try:
        yield fleet, server, tracer
    finally:
        server.stop()


def _traced_submit_burst(fleet, server, tracer):
    ids = _shard_ids(fleet)
    with Client(port=server.port, tracer=tracer) as client:
        resps = client.request(
            SubmitThread(ids[0], _util(1.0), request_id="r0"),
            SubmitThread(ids[1], _util(2.0), request_id="r1"),
        )
    assert all(r.ok for r in resps)
    return resps


def test_fleet_tcp_submit_yields_one_stitched_tree(traced_fleet):
    fleet, server, tracer = traced_fleet
    _traced_submit_burst(fleet, server, tracer)

    roots = tracer.tree()
    assert len(roots) == 1 and roots[0]["name"] == "client.request"

    # the coordinator middle layer is present, once
    names = [s["name"] for s in tracer.snapshot()["spans"]]
    assert names.count("fleet.process") == 1
    assert names.count("fleet.route") == 1
    assert names.count("fleet.certify") == 1
    # one fleet.shard subtree per shard, each with its own solve skeleton
    shard_spans = [s for s in tracer.snapshot()["spans"] if s["name"] == "fleet.shard"]
    assert sorted(s["attrs"]["shard"] for s in shard_spans) == [0, 1]
    assert names.count("solve.alg2") == 2
    # per-request phases are attributed to their request ids
    waits = [s for s in tracer.snapshot()["spans"] if s["name"] == "phase.queue_wait"]
    assert sorted(w["attrs"]["request_id"] for w in waits) == ["r0", "r1"]


def test_fleet_leaf_solve_spans_match_per_shard_skeletons(traced_fleet):
    fleet, server, tracer = traced_fleet
    _traced_submit_burst(fleet, server, tracer)

    # reference: the same eager shard traced directly, no fleet in sight
    reference = Tracer()
    bus = InProcessTransport(_eager_shard(), tracer=reference)
    assert bus.request(SubmitThread("t0", _util()))[0].ok

    stitched_solve = _skeleton_subtree(tracer.skeleton(), "solve.alg2")
    reference_solve = _skeleton_subtree(reference.skeleton(), "solve.alg2")
    assert stitched_solve is not None and reference_solve is not None
    assert stitched_solve["count"] == 2  # one full solve per shard
    assert set(stitched_solve["children"]) == set(reference_solve["children"])


def _normalized_chrome(doc):
    """Chrome export with wall-clock scrubbed: structure, names, ids only."""
    events = []
    for event in doc["traceEvents"]:
        event = dict(event)
        if event["ph"] == "X":
            event["ts"] = 0
            event["dur"] = 0
        events.append(event)
    events.sort(key=lambda e: (e["pid"], e["ph"] != "M", e["args"].get("span_id", -1)))
    return {"traceEvents": events, "displayTimeUnit": doc["displayTimeUnit"]}


def test_fleet_chrome_trace_matches_golden(traced_fleet):
    fleet, server, tracer = traced_fleet
    _traced_submit_burst(fleet, server, tracer)
    doc = _normalized_chrome(chrome_trace(tracer.snapshot()))
    golden = json.loads((GOLDEN / "fleet_stitch.chrome.json").read_text())
    assert doc == golden


# -- auto request ids ----------------------------------------------------------


def test_client_auto_assigns_monotonic_request_ids():
    svc = _eager_shard()
    with TcpServer(svc, port=0) as server:
        with Client(port=server.port) as client:
            r1 = client.submit("a", _util())
            r2 = client.submit("b", _util())
            explicit = client.request(SubmitThread("c", _util(), request_id="mine"))[0]
            r3 = client.remove("a")
    prefix = r1.request_id.rsplit("-", 1)[0]
    assert prefix.startswith("c")
    assert r1.request_id == f"{prefix}-1"
    assert r2.request_id == f"{prefix}-2"
    assert explicit.request_id == "mine"  # caller-chosen ids are untouched
    assert r3.request_id == f"{prefix}-3"  # counter keeps going


def test_two_clients_get_distinct_id_prefixes():
    svc = _eager_shard()
    with TcpServer(svc, port=0) as server:
        with Client(port=server.port) as c1, Client(port=server.port) as c2:
            a = c1.submit("a", _util())
            b = c2.submit("b", _util())
    assert a.request_id.rsplit("-", 1)[0] != b.request_id.rsplit("-", 1)[0]


# -- phase histograms ----------------------------------------------------------


def test_phase_histograms_cover_shard_and_coordinator_phases(traced_fleet):
    fleet, server, tracer = traced_fleet
    _traced_submit_burst(fleet, server, tracer)
    phases = {}
    for inst in fleet.metrics_snapshot()["instruments"]:
        if inst["name"] != REQUEST_PHASE_SECONDS:
            continue
        phases[(inst["labels"]["phase"], inst["labels"].get(SHARD_LABEL))] = inst
    # coordinator-level phases carry no shard label except dispatch
    assert ("route", None) in phases
    assert ("certify", None) in phases
    assert ("coalesce_wait", None) in phases
    assert ("dispatch", "0") in phases and ("dispatch", "1") in phases
    # shard-local phases come back shard-labelled through aggregation
    assert ("queue_wait", "0") in phases and ("queue_wait", "1") in phases
    assert ("solve", "0") in phases and ("solve", "1") in phases
    text = fleet.metrics_text()
    assert "aart_request_phase_seconds_bucket" in text


def test_phase_histograms_populate_without_tracing():
    svc = _eager_shard()
    with TcpServer(svc, port=0) as server:
        with Client(port=server.port) as client:
            assert client.submit("a", _util()).ok
    names = {i["name"] for i in svc.metrics_snapshot()["instruments"]}
    assert REQUEST_PHASE_SECONDS in names


# -- fleet gap alerts carry the shard label ------------------------------------


def test_fleet_gap_alert_points_at_the_binding_shard():
    sink = MemorySink()
    shards = [_eager_shard() for _ in range(2)]
    fleet = FleetCoordinator(
        shards, sink=sink, gap=GapMonitor(threshold=1.5)  # impossible bar
    )
    ids = _shard_ids(fleet)
    resps = fleet.process(
        [SubmitThread(ids[0], _util(1.0)), SubmitThread(ids[1], _util(2.0))]
    )
    assert all(r.ok for r in resps)
    alerts = [e for e in sink.events if e["type"] == "gap_alert"]
    assert alerts, "threshold 1.5 must breach"
    cert = fleet.certificate()
    for alert in alerts:
        assert alert["fleet"] is True
        assert alert[SHARD_LABEL] == str(cert.min_shard)


# -- flight over the protocol --------------------------------------------------


def test_query_flight_fans_out_across_the_fleet():
    from repro.observability import FLIGHT_FORMAT, FlightRecorder

    shards = [
        AllocationService(ClusterState(2, CAP), flight=FlightRecorder())
        for _ in range(2)
    ]
    fleet = FleetCoordinator(shards, flight=FlightRecorder())
    ids = _shard_ids(fleet)
    fleet.process([SubmitThread(ids[0], _util()), SubmitThread(ids[1], _util(2.0))])
    fleet.process([Rebalance()])
    (resp,) = fleet.process([QueryFlight(request_id="f1")])
    assert resp.ok and resp.request_id == "f1"
    doc = resp.data["flight"]
    assert doc["format"] == FLIGHT_FORMAT
    assert any(e["kind"] == "fleet_step" for e in doc["events"])
    assert len(resp.data["shards"]) == 2
    for shard_doc in resp.data["shards"]:
        assert shard_doc["format"] == FLIGHT_FORMAT


def test_query_flight_without_recorder_is_a_clean_refusal():
    svc = _eager_shard()
    bus = InProcessTransport(svc)
    (resp,) = bus.request(QueryFlight())
    assert not resp.ok and "flight" in resp.error


def test_client_flight_over_tcp():
    from repro.observability import FLIGHT_FORMAT, FlightRecorder

    svc = AllocationService(ClusterState(2, CAP), flight=FlightRecorder())
    with TcpServer(svc, port=0) as server:
        with Client(port=server.port) as client:
            client.submit("a", _util())
            doc = client.flight()
    assert doc["format"] == FLIGHT_FORMAT
    assert any(e["kind"] == "step" for e in doc["events"])
