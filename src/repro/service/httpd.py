"""Plain-HTTP introspection endpoint: ``/metrics`` and ``/healthz``.

The allocation protocol itself is JSON-lines over TCP (see
:mod:`repro.service.transport`); scrapers and load balancers speak HTTP.
:class:`MetricsHttpServer` is the bridge — a small read-only sidecar in
front of an :class:`~repro.service.server.AllocationService` or a
:class:`~repro.service.fleet.coordinator.FleetCoordinator`:

* ``GET /metrics`` — the service's full metrics snapshot (typed
  instruments plus lifetime counters) in Prometheus text exposition
  format 0.0.4;
* ``GET /healthz`` — a JSON liveness/guarantee summary including the
  :class:`~repro.observability.GapMonitor` statistics; the status code is
  200 while no certified step has ever breached the α guarantee and 503
  afterwards, so a plain HTTP check doubles as a correctness alarm;
* ``GET /debug/flight`` — the flight-recorder ring as an
  ``aart-flight/1`` JSON document (404 when no recorder is attached);
  a coordinator's document carries every shard's ring under
  ``shards``, exactly what ``QueryFlight`` returns, since both read
  :meth:`~repro.service.frontdoor.FrontDoor.flight_snapshot`.

When constructed with ``flight_dump_path``, the first ``/healthz`` probe
that observes a degraded status also dumps the flight ring to that path —
the postmortem is written the moment the alarm first fires.

Reads race with the request-serving thread unless serialized: pass the
transport's ``lock`` (see :attr:`~repro.service.transport.TcpServer.lock`)
so snapshots are taken between batches, never mid-step.
"""

from __future__ import annotations

import json
import threading
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Protocol

from repro.observability import PROMETHEUS_CONTENT_TYPE, write_flight


class Introspectable(Protocol):
    """Anything exposing Prometheus text and a health summary.

    Satisfied by :class:`~repro.service.frontdoor.FrontDoor`, the read
    surface :class:`~repro.service.server.AllocationService` and
    :class:`~repro.service.fleet.coordinator.FleetCoordinator` share, so
    one sidecar design covers a shard and a whole fleet.
    """

    def metrics_text(self) -> str: ...

    def health(self) -> dict[str, Any]: ...


class _IntrospectionHandler(BaseHTTPRequestHandler):
    """Routes GETs to the owning :class:`MetricsHttpServer`'s service."""

    # Set by MetricsHttpServer on the handler class it builds per instance.
    owner: "MetricsHttpServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server naming contract
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            body = self.owner.render_metrics().encode("utf-8")
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/healthz":
            health = self.owner.render_health()
            body = (json.dumps(health, sort_keys=True) + "\n").encode("utf-8")
            code = 200 if health.get("status") == "ok" else 503
            self._reply(code, "application/json; charset=utf-8", body)
        elif path == "/debug/flight":
            flight = self.owner.render_flight()
            if flight is None:
                self._reply(
                    404,
                    "text/plain; charset=utf-8",
                    b"no flight recorder attached\n",
                )
            else:
                body = (json.dumps(flight, sort_keys=True, default=str) + "\n").encode(
                    "utf-8"
                )
                self._reply(200, "application/json; charset=utf-8", body)
        else:
            self._reply(
                404,
                "text/plain; charset=utf-8",
                b"not found; try /metrics, /healthz or /debug/flight\n",
            )

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        # Scrape traffic is periodic by design; stderr noise helps nobody.
        # The service's own sink already records every meaningful event.
        return


class MetricsHttpServer:
    """A read-only HTTP sidecar serving ``/metrics`` and ``/healthz``.

    Parameters
    ----------
    service:
        The daemon to introspect; never mutated.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port`).
    lock:
        Optional lock held while snapshotting — share the allocation
        transport's lock so scrapes serialize with request batches.
    flight_dump_path:
        Optional path; the first ``/healthz`` render that observes a
        non-ok status dumps the service's flight recorder there (at most
        once per process — the interesting ring is the one surrounding
        the first breach, and later dumps would overwrite it).
    """

    def __init__(
        self,
        service: Introspectable,
        host: str = "127.0.0.1",
        port: int = 0,
        lock: "threading.Lock | None" = None,
        flight_dump_path: str | None = None,
    ):
        self.service = service
        self._guard = lock
        self._flight_dump_path = flight_dump_path
        self._flight_dumped = False
        handler = type("BoundHandler", (_IntrospectionHandler,), {"owner": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    def render_metrics(self) -> str:
        with self._guard if self._guard is not None else nullcontext():
            return self.service.metrics_text()

    def render_health(self) -> dict[str, Any]:
        with self._guard if self._guard is not None else nullcontext():
            health = self.service.health()
        if (
            health.get("status") != "ok"
            and self._flight_dump_path is not None
            and not self._flight_dumped
        ):
            # A plain bool, not a lock: concurrent probes at the breach
            # instant may both dump, which is harmless (same ring, same
            # path, atomic replace) — while a lock here would race the
            # transport lock ordering for no benefit.
            self._flight_dumped = True
            self._dump_flight(self._flight_dump_path)
        return health

    def render_flight(self) -> dict[str, Any] | None:
        """The service's flight-recorder snapshot, or None if detached."""
        snapshot = getattr(self.service, "flight_snapshot", None)
        if snapshot is None:
            return None
        with self._guard if self._guard is not None else nullcontext():
            return snapshot()

    def _dump_flight(self, path: str) -> None:
        flight = self.render_flight()
        if flight is not None:
            write_flight(flight, path)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MetricsHttpServer":
        """Serve in a daemon thread; returns self (so ``httpd = ...start()``)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="aart-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and wait for the serve thread to exit."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsHttpServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


__all__ = ["MetricsHttpServer"]
