"""Transports: how requests reach the allocation daemon.

Two implementations of the same protocol:

* :class:`InProcessTransport` — direct coupling to an
  :class:`~repro.service.server.AllocationService`, used by tests,
  embeddings and the CI smoke job.  A ``request(...)`` call with N
  messages is exactly one coalesced batch.
* :class:`TcpServer` / :class:`Client` — JSON lines over TCP.  Each line
  is one request dict; the server serves **every complete line a
  connection has already received as one batch**, without waiting for
  more, so a pipelined burst collapses into a single incremental step
  while a lone request is served at once.  Responses come back one line
  per request, in request order.

The wire format is owned by :mod:`repro.service.api`; this module only
moves bytes.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Protocol

from repro.observability import Tracer
from repro.service.api import (
    QueryAssignment,
    QueryFlight,
    QueryMetrics,
    Rebalance,
    RemoveThread,
    Request,
    Response,
    Snapshot,
    SubmitThread,
    TraceContext,
    UpdateCapacity,
    request_from_dict,
    request_to_dict,
    response_from_dict,
    response_to_dict,
)
from repro.utility.base import UtilityFunction

_RECV_CHUNK = 65536
_POLL_S = 0.1

#: Client instance counter — the prefix of auto-assigned request ids
#: (``c3-7`` = 7th request of the 3rd client in this process).  A plain
#: deterministic counter, never wall-clock or random (AART001/002).
_CLIENT_SEQ = itertools.count(1)


class RequestProcessor(Protocol):
    """Anything that serves one coalesced batch of typed requests.

    Both :class:`~repro.service.server.AllocationService` and
    :class:`~repro.service.fleet.coordinator.FleetCoordinator` satisfy
    this, so every transport here fronts a single shard and a whole
    fleet interchangeably.  ``transport_info`` carries transport-side
    measurements (e.g. the TCP batch's wait for the lock) into the phase
    metrics.
    """

    def process(
        self,
        requests: list[Request],
        transport_info: dict[str, Any] | None = None,
    ) -> list[Response]: ...


def _attach_context(
    requests: tuple[Request, ...] | list[Request], ctx: TraceContext
) -> list[Request]:
    """Stamp ``ctx`` on every request that does not already carry one."""
    return [replace(r, trace=ctx) if r.trace is None else r for r in requests]


def _merge_response_traces(tracer: Tracer, responses: list[Response]) -> None:
    """Graft every ferried span snapshot into the caller's tracer."""
    for resp in responses:
        if resp.trace is not None:
            tracer.merge(resp.trace)


class InProcessTransport:
    """Zero-copy transport: requests go straight to ``service.process``.

    With a ``tracer`` attached, each :meth:`request` call opens a
    ``client.request`` span, stamps its :class:`TraceContext` on the
    batch, and grafts the ferried server-side span snapshots back under
    it — the same stitching the TCP client does, minus the wire.
    """

    def __init__(self, service: RequestProcessor, tracer: Tracer | None = None):
        self.service = service
        self.tracer = tracer

    def request(self, *requests: Request) -> list[Response]:
        """Serve ``requests`` as one coalesced batch; responses in order."""
        if self.tracer is None:
            return self.service.process(list(requests))
        with self.tracer.span("client.request", n=len(requests)) as span_id:
            ctx = TraceContext(self.tracer.trace_id, span_id)
            out = self.service.process(_attach_context(requests, ctx))
            _merge_response_traces(self.tracer, out)
        return out


def _encode_lines(dicts) -> bytes:
    return b"".join(
        json.dumps(d, sort_keys=True).encode("utf-8") + b"\n" for d in dicts
    )


class TcpServer:
    """JSON-lines-over-TCP listener in front of a :class:`RequestProcessor`.

    Parameters
    ----------
    service:
        The daemon to serve — an
        :class:`~repro.service.server.AllocationService` or a
        :class:`~repro.service.fleet.coordinator.FleetCoordinator`.
        Concurrent connections are accepted (one thread each) but batches
        serialize through one lock — the service itself stays
        single-writer.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port`).

    A batch is backlog, not a time slice: once a connection has a
    complete line, the server drains whatever else the socket already
    holds without waiting, and hands every complete line to the service
    in one ``process`` call.  A burst sent in one write is one step; a
    lone request never waits for company.  The ``coalesce_wait`` phase
    measures a batch from its first line to its hand-off under the batch
    lock.
    """

    def __init__(
        self,
        service: RequestProcessor,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._sock = socket.create_server((host, port))
        self._sock.settimeout(_POLL_S)
        self.host, self.port = self._sock.getsockname()[:2]
        self._shutdown = threading.Event()
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def lock(self) -> threading.Lock:
        """The batch lock — share it with read-only sidecars (``/metrics``)
        so their snapshots serialize with request batches."""
        return self._lock

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "TcpServer":
        """Serve in a daemon thread; returns self (so ``server = ...start()``)."""
        # Lifecycle attribute: start/stop are called by the owning thread
        # only, never by connection handlers (which share just _lock).
        self._thread = threading.Thread(  # aart: ignore[AART005]
            target=self.serve_forever, name="aart-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Signal shutdown and wait for the accept loop to exit."""
        self._shutdown.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None  # aart: ignore[AART005]  (owner-thread lifecycle)

    def __enter__(self) -> "TcpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Accept loop (blocking); call :meth:`stop` from another thread."""
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _addr = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                ).start()
        finally:
            self._sock.close()

    # -- per-connection protocol ----------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            buf = b""
            eof = False
            while not self._shutdown.is_set():
                batch, buf = _pop_lines(buf)
                if not batch:
                    if eof:
                        return
                    buf, eof, _got = _fill(conn, buf, _POLL_S)
                    continue
                t_first = time.monotonic()
                while not eof:  # drain what has already arrived, never wait
                    buf, eof, got = _fill(conn, buf, 0.0)
                    if not got:
                        break
                more, buf = _pop_lines(buf)
                reply = _encode_lines(self._process_batch(batch + more, t_first))
                conn.settimeout(None)  # the reply waits on the reader, not a poll tick
                try:
                    conn.sendall(reply)
                except OSError:
                    return

    def _process_batch(self, lines: list[bytes], t_first: float) -> list[dict]:
        """Decode each line, serve the decodable ones as ONE batch.

        ``t_first`` is when the batch's first line was seen; the wait up to
        the hand-off under the batch lock is reported as ``coalesce_wait_s``.
        """
        parsed: list[Request | Response] = []
        for raw in lines:
            try:
                parsed.append(request_from_dict(json.loads(raw.decode("utf-8"))))
            except (ValueError, KeyError, TypeError) as exc:
                parsed.append(Response.failure("?", f"bad request line: {exc}"))
        requests = [p for p in parsed if not isinstance(p, Response)]
        # Owner-thread pattern: the batch lock IS the server's serialization
        # point — every connection's requests are served as one ordered batch,
        # so the (deadline-bounded) re-solve runs under it by design.
        with self._lock:  # aart: ignore[AART009]
            info = {"transport": "tcp", "coalesce_wait_s": time.monotonic() - t_first}
            served = iter(self.service.process(requests, info))
        out: list[Response] = [
            p if isinstance(p, Response) else next(served) for p in parsed
        ]
        return [response_to_dict(r) for r in out]


def _pop_lines(buf: bytes) -> tuple[list[bytes], bytes]:
    """Split every complete line off ``buf`` (skipping blank keep-alives)."""
    head, sep, rest = buf.rpartition(b"\n")
    if not sep:
        return [], buf
    return [line for line in head.split(b"\n") if line.strip()], rest


def _fill(conn: socket.socket, buf: bytes, timeout: float) -> tuple[bytes, bool, bool]:
    """recv() once with ``timeout`` (0 polls); returns ``(buf, eof, got_data)``."""
    conn.settimeout(timeout)
    try:
        chunk = conn.recv(_RECV_CHUNK)
    except (socket.timeout, BlockingIOError):
        return buf, False, False
    except OSError:
        return buf, True, False
    if not chunk:
        return buf, True, False
    return buf + chunk, False, True


class Client:
    """Small synchronous client speaking the JSON-lines protocol.

    One :meth:`request` call writes all its lines at once, and the server
    serves every line that has arrived together as one batch, so a
    multi-request call is one step when its lines arrive together (as
    they do on loopback and for any burst that fits one segment).

    Every request the caller did not tag gets an auto-assigned
    monotonically increasing ``request_id`` (``c<client>-<n>``), so
    responses, flight-recorder entries and trace spans stay correlatable.
    With a ``tracer`` attached, each :meth:`request` call is one
    ``client.request`` span (children ``client.send`` / ``client.recv``),
    its :class:`TraceContext` rides on the wire, and the server's ferried
    span snapshot is grafted back under it — one stitched tree per call.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 10.0,
        tracer: Tracer | None = None,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self.tracer = tracer
        self._id_prefix = f"c{next(_CLIENT_SEQ)}"
        self._id_seq = 0

    def close(self) -> None:
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _stamp_ids(self, requests: tuple[Request, ...]) -> list[Request]:
        out: list[Request] = []
        for req in requests:
            if req.request_id is None:
                self._id_seq += 1
                req = replace(req, request_id=f"{self._id_prefix}-{self._id_seq}")
            out.append(req)
        return out

    def request(self, *requests: Request) -> list[Response]:
        """Send ``requests`` as one burst; block for the matching responses."""
        if not requests:
            return []
        reqs = self._stamp_ids(requests)
        if self.tracer is None:
            return self._roundtrip(reqs)
        with self.tracer.span("client.request", n=len(reqs)) as span_id:
            ctx = TraceContext(self.tracer.trace_id, span_id)
            out = self._roundtrip(_attach_context(reqs, ctx))
            _merge_response_traces(self.tracer, out)
        return out

    def _roundtrip(self, requests: list[Request]) -> list[Response]:
        tracer = self.tracer
        send_span = (
            tracer.span("client.send") if tracer is not None else nullcontext()
        )
        with send_span:
            self._sock.sendall(_encode_lines(request_to_dict(r) for r in requests))
        out: list[Response] = []
        recv_span = (
            tracer.span("client.recv") if tracer is not None else nullcontext()
        )
        with recv_span:
            for _ in requests:
                line = self._file.readline()
                if not line:
                    raise ConnectionError("server closed the connection mid-response")
                out.append(response_from_dict(json.loads(line.decode("utf-8"))))
        return out

    # -- convenience wrappers -------------------------------------------------

    def submit(self, thread_id: str, utility: UtilityFunction) -> Response:
        return self.request(SubmitThread(thread_id, utility))[0]

    def remove(self, thread_id: str) -> Response:
        return self.request(RemoveThread(thread_id))[0]

    def update_capacity(self, capacity: float) -> Response:
        return self.request(UpdateCapacity(capacity))[0]

    def rebalance(self) -> Response:
        return self.request(Rebalance())[0]

    def status(self) -> dict:
        return self.request(QueryAssignment())[0].data

    def metrics(self) -> dict:
        return self.request(QueryMetrics())[0].data

    def snapshot(self, path: str | None = None) -> Response:
        return self.request(Snapshot(path=path))[0]

    def flight(self) -> dict:
        """The server's flight-recorder ring (``aart-flight/1`` document)."""
        resp = self.request(QueryFlight())[0]
        if not resp.ok:
            raise RuntimeError(resp.error or "flight query failed")
        return resp.data["flight"]
