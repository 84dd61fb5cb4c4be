"""The read surface both front doors share.

:class:`~repro.service.server.AllocationService` (one shard) and
:class:`~repro.service.fleet.coordinator.FleetCoordinator` (N shards)
serve the same protocol, ``/metrics``, ``/healthz`` and
``/debug/flight``.  :class:`FrontDoor` holds what they serve the same
way: the telemetry wiring, the gap-alert emit, the merged metrics
snapshot and its exposition, the flight read, the ``QueryFlight`` /
``QueryMetrics`` answers, ``health`` and ``handle``, and the per-batch
tracing and phase-latency plumbing both ``process`` methods call.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any

from repro.observability import (
    REQUEST_PHASE_SECONDS,
    Counters,
    EventSink,
    FlightRecorder,
    GapMonitor,
    MetricsRegistry,
    Tracer,
    counters_to_snapshot,
    merge_snapshots,
    render_prometheus,
    stamp_remote,
    strip_partials,
    tee_sinks,
)
from repro.service.api import (
    QueryFlight,
    QueryMetrics,
    Request,
    Response,
    response_to_dict,
)

_PHASE_HELP = (
    "Request latency split by phase (queue wait, coalesce wait, solve, serialize)."
)


class FrontDoor:
    """Telemetry, tracing plumbing and the reads both front doors answer alike.

    A subclass defines ``process`` in its own body and fills in what
    differs: ``_identity()`` (the fields naming which door answered, in
    ``QueryMetrics`` and ``health``), ``_health_fields()`` (whether its
    own parts are ok, and the rest of ``health``), ``_read(req)`` (every
    other read) and, optionally, ``_extra_snapshots()`` and
    ``_extra_flight()``.

    ``sink`` receives every event (teed into ``flight``, which keeps the
    notable subset); ``metrics`` and ``gap`` are created fresh when
    omitted.
    """

    def __init__(
        self,
        sink: EventSink | None,
        metrics: MetricsRegistry | None,
        gap: GapMonitor | None,
        flight: FlightRecorder | None,
    ):
        self.flight = flight
        #: The one sink every event goes to (``None`` when none is attached).
        self._sink = tee_sinks(sink, flight)
        self.counters = Counters()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.gap = gap if gap is not None else GapMonitor()

    # -- plumbing --------------------------------------------------------------

    def _observe_gap(self, utility: float, bound: float, **context: Any) -> None:
        """Check one certified ratio against α; emit the alert on a breach."""
        alert = self.gap.observe(utility, bound, **context)
        if alert is not None and self._sink is not None:
            self._sink.emit(alert)

    def _observe_phase(self, op: str, phase: str, seconds: float, **labels: str) -> None:
        """One observation of the per-phase request latency histogram."""
        self.metrics.histogram(
            REQUEST_PHASE_SECONDS, help=_PHASE_HELP, op=op, phase=phase, **labels
        ).observe(seconds)

    def _batch_tracer(
        self, requests: list[Request], transport_info: dict[str, Any] | None
    ) -> Tracer | None:
        """A per-batch tracer when any request is traced, else ``None``.

        Also folds the transport's ``coalesce_wait_s`` (when reported) into
        the phase histogram and — on the traced path — a
        ``phase.coalesce_wait`` span ending at the tracer's epoch.  Over TCP
        that wait runs from the batch's first line to its hand-off under the
        batch lock: decoding plus waiting for other connections' batches,
        never a timer.
        """
        ctxs = [req.trace for req in requests if req.trace is not None]
        wait = (transport_info or {}).get("coalesce_wait_s")
        if wait is not None:
            self._observe_phase("batch", "coalesce_wait", float(wait))
        if not ctxs:
            return None
        tracer = Tracer(trace_id=ctxs[0].trace_id)
        if wait is not None:
            tracer.record(
                "phase.coalesce_wait", start=tracer.now - float(wait), duration=float(wait)
            )
        return tracer

    def _attach_trace(
        self, requests: list[Request], slots: list[Response | None], tracer: Tracer
    ) -> None:
        """Stamp the batch's span snapshot onto each trace's first request.

        Serialization cost is measured here (the traced path encodes the
        payload once extra) and recorded as the ``serialize`` phase before
        the snapshot is taken, so the ferried tree includes it.
        """
        t0 = time.monotonic()
        for req, resp in zip(requests, slots):
            if req.trace is not None and resp is not None:
                response_to_dict(resp)
        serialize = time.monotonic() - t0
        self._observe_phase("batch", "serialize", serialize)
        tracer.record("phase.serialize", start=tracer.now - serialize, duration=serialize)
        snap = tracer.snapshot()
        stamped: set[str] = set()
        for k, req in enumerate(requests):
            ctx = req.trace
            resp = slots[k]
            if ctx is None or resp is None or ctx.trace_id in stamped:
                continue
            stamped.add(ctx.trace_id)
            slots[k] = replace(
                resp, trace=stamp_remote(snap, ctx.trace_id, ctx.parent_span_id)
            )

    # -- reads ---------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Serve one request on its own (a batch of one)."""
        return self.process([request])[0]

    def _extra_snapshots(self) -> list[dict[str, Any]]:
        """Metric snapshots merged after this door's own (none by default)."""
        return []

    def metrics_snapshot(self) -> dict[str, Any]:
        """Typed instruments plus lifetime counters as ONE mergeable snapshot."""
        return merge_snapshots(
            self.metrics.snapshot(),
            counters_to_snapshot(self.counters.snapshot()),
            *self._extra_snapshots(),
        )

    def metrics_text(self) -> str:
        """Everything :meth:`metrics_snapshot` holds, in Prometheus text format."""
        return render_prometheus(self.metrics_snapshot())

    def _extra_flight(self) -> dict[str, Any]:
        """Fields added to the flight document (none by default)."""
        return {}

    def flight_snapshot(self) -> dict[str, Any] | None:
        """The flight recorder's ring plus :meth:`_extra_flight`.

        ``None`` when no recorder is attached.  ``/debug/flight``, the
        ``/healthz`` dump and ``QueryFlight`` all answer from this.
        """
        if self.flight is None:
            return None
        return {**self.flight.snapshot(), **self._extra_flight()}

    def health(self) -> dict[str, Any]:
        """Liveness + guarantee summary for ``/healthz`` (JSON-ready).

        ``status`` is ``"ok"`` while no certified step has ever breached
        the α guarantee and every part this door answers for is ok,
        ``"degraded"`` afterwards — per Lemma V.3 a breach means a bug,
        not a hard workload.
        """
        parts_ok, fields = self._health_fields()
        gap = self.gap.stats()
        return {
            "status": "ok" if gap["ok"] and parts_ok else "degraded",
            **self._identity(),
            **fields,
            "gap": gap,
        }

    def _handle_read(self, req: Request) -> Response:
        """Answer one read against the post-step state."""
        if isinstance(req, QueryFlight):
            flight = self.flight_snapshot()
            if flight is None:
                return Response.failure(
                    req.op, "no flight recorder attached", request_id=req.request_id
                )
            # Shard rings (a coordinator's) ride beside the ring on the wire.
            shards = {"shards": flight.pop("shards")} if "shards" in flight else {}
            return Response.success(
                req.op, request_id=req.request_id, flight=flight, **shards
            )
        if isinstance(req, QueryMetrics):
            return Response.success(
                req.op,
                request_id=req.request_id,
                metrics=strip_partials(self.metrics_snapshot()),
                gap=self.gap.stats(),
                **self._identity(),
            )
        return self._read(req)

