"""JSON-lines TCP transport: protocol, coalescing, client, error paths."""

import json
import socket
import time

import pytest

from repro.observability import SERVICE_STEPS
from repro.service import (
    AllocationService,
    Client,
    ClusterState,
    InProcessTransport,
    QueryAssignment,
    SubmitThread,
    TcpServer,
)
from repro.service.api import request_to_dict
from repro.utility.functions import LogUtility

CAP = 10.0


def _util(c=1.0):
    return LogUtility(c, 1.0, CAP)


@pytest.fixture()
def server():
    svc = AllocationService(ClusterState(2, CAP))
    srv = TcpServer(svc, port=0)
    srv.start()
    yield srv
    srv.stop()


def test_inprocess_transport_is_one_batch():
    svc = AllocationService(ClusterState(2, CAP))
    bus = InProcessTransport(svc)
    responses = bus.request(*[SubmitThread(f"t{k}", _util()) for k in range(5)])
    assert all(r.ok for r in responses)
    assert svc.counters[SERVICE_STEPS] == 1


def test_tcp_submit_and_status(server):
    with Client(port=server.port) as client:
        resp = client.submit("a", _util(2.0))
        assert resp.ok
        assert resp.data["thread_id"] == "a"
        status = client.status()
        assert status["n_threads"] == 1
        assert status["total_utility"] > 0


def test_tcp_burst_coalesces_into_one_step(server):
    with Client(port=server.port) as client:
        responses = client.request(
            *[SubmitThread(f"t{k}", _util()) for k in range(6)]
        )
    assert all(r.ok for r in responses)
    assert server.service.counters[SERVICE_STEPS] == 1


def test_tcp_full_session(server):
    with Client(port=server.port) as client:
        assert client.submit("x", _util()).ok
        assert client.submit("y", _util()).ok
        assert client.rebalance().ok
        assert client.remove("x").ok
        assert not client.remove("ghost").ok
        assert client.update_capacity(20.0).ok
        snap = client.snapshot()
        assert snap.ok
        assert snap.data["state"]["format"] == "aart-cluster-state/1"
        assert client.status()["n_threads"] == 1


def test_tcp_responses_in_request_order(server):
    with Client(port=server.port) as client:
        responses = client.request(
            SubmitThread("a", _util(), request_id="0"),
            QueryAssignment(request_id="1"),
            SubmitThread("b", _util(), request_id="2"),
        )
    assert [r.request_id for r in responses] == ["0", "1", "2"]


def test_tcp_bad_line_gets_error_response(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
        sock.sendall(b'{"op": "submit"}\nnot json at all\n')
        fh = sock.makefile("rb")
        first = json.loads(fh.readline())
        second = json.loads(fh.readline())
    assert first["ok"] is False  # submit without thread_id/utility
    assert second["ok"] is False
    assert "bad request line" in second["error"]


def test_tcp_burst_then_close_without_reading(server):
    burst = b"".join(
        json.dumps(request_to_dict(SubmitThread(f"t{k}", _util()))).encode() + b"\n"
        for k in range(2)
    )
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
        sock.sendall(burst)
    # One connection, several round trips: an empty socket is not EOF.
    with Client(port=server.port) as client:
        deadline = time.monotonic() + 5.0
        while client.status()["n_threads"] < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.status()["n_threads"] == 2
        assert client.remove("t0").ok and client.remove("t1").ok
        assert client.submit("after", _util()).ok
        assert client.status()["n_threads"] == 1


def test_tcp_blank_lines_ignored(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
        sock.sendall(b"\n\n" + json.dumps({"op": "query"}).encode() + b"\n")
        reply = json.loads(sock.makefile("rb").readline())
    assert reply["ok"] is True


def test_tcp_two_sequential_clients(server):
    with Client(port=server.port) as c1:
        c1.submit("from-c1", _util())
    with Client(port=server.port) as c2:
        assert c2.status()["n_threads"] == 1


def test_server_context_manager_stops_cleanly():
    svc = AllocationService(ClusterState(1, CAP))
    with TcpServer(svc, port=0) as srv:
        with Client(port=srv.port) as client:
            assert client.status()["n_servers"] == 1
    # After stop(), new connections must fail.
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", srv.port), timeout=0.5)


def test_empty_request_list_is_noop(server):
    with Client(port=server.port) as client:
        assert client.request() == []
