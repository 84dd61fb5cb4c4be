"""The allocation daemon: batched mutations, admission control, replans.

:class:`AllocationService` hosts one live AA instance behind the request
API of :mod:`repro.service.api`.  The execution model is deliberately
simple and deterministic:

* mutating requests (submit / remove / capacity / rebalance) are queued,
  and :meth:`step` **coalesces the whole queue into one incremental
  step**: departures free resource, arrivals are placed greedily
  (:meth:`~repro.extensions.online.OnlineScheduler.add_thread`), nothing
  else moves;
* after applying the batch the :class:`~repro.service.policy.ReplanPolicy`
  is consulted once — a full Algorithm-2 re-solve runs only when the
  incremental state has drifted below the certification threshold, gone
  stale, or a client explicitly asked for it;
* every step runs under an instrumented
  :class:`~repro.engine.SolveContext` with a per-request wall-clock
  budget; its counters merge into the service's lifetime counters and its
  spans stream to the service's one event sink (the caller's sink, the
  flight recorder, or both), which every service event also goes to.

Reads (query / snapshot) are answered against the post-step state, so
within one batch "all writes happen before any read".
"""

from __future__ import annotations

import time
from typing import Any

from repro.engine import LinearizationCache, SolveContext, SolveTimeout
from repro.observability import (
    GAUGE_BOUND,
    GAUGE_RATIO,
    GAUGE_THREADS,
    GAUGE_UTILITY,
    QUEUE_DEPTH,
    REQUEST_LATENCY,
    SERVER_RESIDUAL,
    SERVICE_ADMISSION_REJECTS,
    SERVICE_ARRIVALS,
    SERVICE_DEPARTURES,
    SERVICE_MIGRATIONS,
    SERVICE_REPLANS,
    SERVICE_REQUESTS,
    SERVICE_STEPS,
    STEP_SECONDS,
    EventSink,
    FlightRecorder,
    GapMonitor,
    MetricsRegistry,
    Tracer,
)
from repro.service.api import (
    MUTATING_OPS,
    QueryAssignment,
    Rebalance,
    RemoveThread,
    Request,
    Response,
    Snapshot,
    SubmitThread,
    UpdateCapacity,
)
from repro.service.frontdoor import FrontDoor
from repro.service.policy import AdmissionPolicy, ReplanPolicy
from repro.service.state import ClusterState
from repro.utils.rng import SeedLike, as_generator


class AllocationService(FrontDoor):
    """A stateful, batching allocation daemon.

    Parameters
    ----------
    state:
        The :class:`~repro.service.state.ClusterState` to own (e.g. fresh,
        or restored from a snapshot).
    replan_policy, admission_policy:
        See :mod:`repro.service.policy`; defaults certify at α and bound
        the queue at 1024.
    solve_budget_s:
        Per-step wall-clock budget.  The step's ``SolveContext`` carries
        it as a deadline; a re-solve that overruns is abandoned and the
        (still feasible) incremental state stands.
    sink:
        Optional :class:`~repro.observability.EventSink` receiving
        ``request`` / ``step`` / ``replan`` / ``gap_alert`` events and
        solver spans.
    seed:
        Seeds the RNG handed to solver contexts.
    metrics:
        Typed instrument registry (created fresh when omitted).  Every
        step records per-op request latency and step-duration histograms
        plus queue-depth / thread-count / utility / per-server-residual
        gauges; :meth:`metrics_text` renders everything — lifetime
        counters included — in Prometheus text format.
    gap:
        The :class:`~repro.observability.GapMonitor` watching certified
        utility/bound ratios against the paper's α guarantee (created
        fresh when omitted).  Its alerts go to ``sink`` and ``flight``.
    flight:
        Optional :class:`~repro.observability.FlightRecorder`; every
        emitted event is teed into it (it keeps the notable subset), and
        ``QueryFlight`` / ``/debug/flight`` answer from its ring.
    """

    def __init__(
        self,
        state: ClusterState,
        replan_policy: ReplanPolicy | None = None,
        admission_policy: AdmissionPolicy | None = None,
        solve_budget_s: float | None = None,
        sink: EventSink | None = None,
        seed: SeedLike = 0,
        metrics: MetricsRegistry | None = None,
        gap: GapMonitor | None = None,
        flight: FlightRecorder | None = None,
    ):
        self.state = state
        self.replan_policy = replan_policy or ReplanPolicy()
        self.admission_policy = admission_policy or AdmissionPolicy()
        self.solve_budget_s = solve_budget_s
        super().__init__(sink, metrics, gap, flight)
        self.cache = LinearizationCache()
        self._rng = as_generator(seed)
        self._pending: list[tuple[Request, float]] = []
        #: Certification data from the most recent step (may lag mutations
        #: made in later batches; stamped with the version it was computed at).
        self.last_bound: float | None = None
        self.last_ratio: float | None = None
        self.last_certified_version: int | None = None

    # -- plumbing ------------------------------------------------------------

    def _make_ctx(self, tracer: Tracer | None = None) -> SolveContext:
        return SolveContext(
            seed=self._rng,
            budget_s=self.solve_budget_s,
            sink=self._sink,
            cache=self.cache,
            tracer=tracer,
        )

    # -- queueing ------------------------------------------------------------

    def enqueue(self, request: Request) -> Response | None:
        """Queue one mutating request for the next coalesced step.

        Returns ``None`` when queued (its response comes out of
        :meth:`step`) or an immediate rejection :class:`Response` when the
        admission queue bound is hit.
        """
        if request.op not in MUTATING_OPS:
            raise ValueError(f"cannot enqueue non-mutating op {request.op!r}")
        self.counters.add(SERVICE_REQUESTS)
        reason = self.admission_policy.refuse_enqueue(len(self._pending))
        if reason is not None:
            self.counters.add(SERVICE_ADMISSION_REJECTS)
            if self._sink is not None:
                self._sink.emit(
                    {
                        "type": "request",
                        "op": request.op,
                        "ok": False,
                        "reason": reason,
                        "request_id": request.request_id,
                    }
                )
            return Response.failure(request.op, reason, request_id=request.request_id)
        self._pending.append((request, time.monotonic()))
        self.metrics.gauge(QUEUE_DEPTH, help="Mutations queued for the next step.").set(
            len(self._pending)
        )
        return None

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    # -- the coalesced step ----------------------------------------------------

    def step(self, tracer: Tracer | None = None) -> list[Response]:
        """Apply every queued mutation as ONE incremental step.

        Departures and capacity updates are applied first (they free
        resource), then arrivals are admitted and greedily placed; at most
        one full re-solve follows (forced by a queued ``Rebalance`` or
        fired by the replan policy).  Returns one response per queued
        request, in queue order.  An empty queue is a no-op (no step is
        counted).

        ``tracer`` (optional) receives the step's span tree — the
        transports pass a per-batch tracer when a request carries a
        :class:`~repro.service.api.TraceContext`.
        """
        if not self._pending:
            return []
        batch, self._pending = self._pending, []
        ctx = self._make_ctx(tracer)
        t_start = time.monotonic()
        responses: dict[int, Response] = {}
        forced_rebalance: list[int] = []

        with ctx.span("service.step"):
            # Phase 1: departures and capacity changes (free resource first).
            for k, (req, _) in enumerate(batch):
                if isinstance(req, RemoveThread):
                    try:
                        self.state.apply_departure(req.thread_id)
                    except KeyError:
                        responses[k] = Response.failure(
                            req.op,
                            f"unknown thread {req.thread_id!r}",
                            request_id=req.request_id,
                        )
                    else:
                        ctx.count(SERVICE_DEPARTURES)
                        responses[k] = Response.success(
                            req.op, request_id=req.request_id, thread_id=req.thread_id
                        )
                elif isinstance(req, UpdateCapacity):
                    try:
                        self.state.apply_capacity(req.capacity)
                    except ValueError as exc:
                        responses[k] = Response.failure(
                            req.op, str(exc), request_id=req.request_id
                        )
                    else:
                        responses[k] = Response.success(
                            req.op, request_id=req.request_id, capacity=req.capacity
                        )
            # Phase 2: arrivals, gated by the marginal-utility floor.
            for k, (req, _) in enumerate(batch):
                if not isinstance(req, SubmitThread):
                    continue
                responses[k] = self._admit(req, ctx)
            # Phase 3: at most one full re-solve for the whole batch.
            for k, (req, _) in enumerate(batch):
                if isinstance(req, Rebalance):
                    forced_rebalance.append(k)
            self.state.mark_step()
            ctx.count(SERVICE_STEPS)
            replan_info = self._maybe_replan(ctx, forced=bool(forced_rebalance))
            for k in forced_rebalance:
                req = batch[k][0]
                if replan_info.get("error"):
                    responses[k] = Response.failure(
                        req.op, replan_info["error"], request_id=req.request_id
                    )
                else:
                    responses[k] = Response.success(
                        req.op, request_id=req.request_id, **replan_info
                    )

        # Merge the step context into the service-lifetime counters and
        # emit per-request latency events.
        self.counters.merge(ctx.counters)
        now = time.monotonic()
        for k, (req, t_enq) in enumerate(batch):
            resp = responses[k]
            queue_wait = t_start - t_enq
            self.metrics.histogram(
                REQUEST_LATENCY,
                help="Enqueue-to-response latency per mutating op.",
                op=req.op,
            ).observe(now - t_enq)
            self._observe_phase(req.op, "queue_wait", queue_wait)
            if tracer is not None:
                tracer.record(
                    "phase.queue_wait",
                    start=tracer.now - (now - t_enq),
                    duration=queue_wait,
                    parent_id=None,
                    op=req.op,
                    request_id=req.request_id,
                )
            if self._sink is not None:
                self._sink.emit(
                    {
                        "type": "request",
                        "op": req.op,
                        "ok": resp.ok,
                        "latency_s": now - t_enq,
                        "request_id": req.request_id,
                    }
                )
        self._observe_phase("step", "solve", now - t_start)
        self.metrics.histogram(
            STEP_SECONDS, help="Duration of each coalesced service step."
        ).observe(now - t_start)
        self._observe_state_gauges()
        if self._sink is not None:
            self._sink.emit(
                {
                    "type": "step",
                    "batch_size": len(batch),
                    "seconds": now - t_start,
                    "version": self.state.version,
                    "n_threads": self.state.n_threads,
                    "utility": self.state.total_utility(),
                    "bound": self.last_bound,
                    "ratio": self.last_ratio,
                    "counters": ctx.counters.snapshot(),
                }
            )
        return [responses[k] for k in range(len(batch))]

    def _observe_state_gauges(self) -> None:
        """Refresh the point-in-time gauges from the post-step state."""
        self.metrics.gauge(
            QUEUE_DEPTH, help="Mutations queued for the next step."
        ).set(self.queue_length)
        self.metrics.gauge(GAUGE_THREADS, help="Threads currently scheduled.").set(
            self.state.n_threads
        )
        self.metrics.gauge(
            GAUGE_UTILITY, help="Total realized utility of the serving state."
        ).set(self.state.total_utility())
        for j, load in enumerate(self._server_loads()):
            self.metrics.gauge(
                SERVER_RESIDUAL,
                help="Unallocated capacity per server.",
                server=str(j),
            ).set(self.state.capacity - load)

    def _server_loads(self) -> list[float]:
        if not self.state.n_threads:
            return [0.0] * self.state.n_servers
        return self.state.assignment().server_loads(self.state.n_servers).tolist()

    def _admit(self, req: SubmitThread, ctx: SolveContext) -> Response:
        """Admission-check one submission and greedily place it if accepted."""
        if req.thread_id in self.state.scheduler:
            return Response.failure(
                req.op,
                f"thread {req.thread_id!r} already scheduled",
                request_id=req.request_id,
            )
        try:
            server, gain = self.state.scheduler.placement_gain(req.utility)
        except ValueError as exc:
            return Response.failure(req.op, str(exc), request_id=req.request_id)
        reason = self.admission_policy.refuse_submit(gain)
        if reason is not None:
            ctx.count(SERVICE_ADMISSION_REJECTS)
            return Response.failure(
                req.op, reason, request_id=req.request_id, projected_gain=gain
            )
        self.state.apply_arrival(req.thread_id, req.utility)
        ctx.count(SERVICE_ARRIVALS)
        return Response.success(
            req.op,
            request_id=req.request_id,
            thread_id=req.thread_id,
            server=server,
            projected_gain=gain,
        )

    def _maybe_replan(self, ctx: SolveContext, forced: bool) -> dict[str, Any]:
        """Certify the post-batch state and re-solve if warranted.

        Returns a payload dict describing what happened (used to answer
        explicit ``Rebalance`` requests).
        """
        if self.state.n_threads == 0:
            self.last_bound, self.last_ratio = 0.0, 1.0
            self.last_certified_version = self.state.version
            self._observe_gap(0.0, 0.0, version=self.state.version)
            return {"replanned": False, "reason": None, "migrations": 0}
        try:
            lin = ctx.linearization(self.state.scheduler.problem())
        except SolveTimeout as exc:
            # Can't even certify inside the budget; the incremental state
            # is still feasible, so keep serving it uncertified.
            if self._sink is not None:
                self._sink.emit({"type": "replan", "reason": "uncertified", "ok": False})
            return {
                "replanned": False,
                "reason": None,
                "migrations": 0,
                "error": f"certification abandoned: {exc}",
            }
        bound = lin.super_optimal_utility
        utility = self.state.total_utility()
        reason = (
            "requested"
            if forced
            else self.replan_policy.should_replan(
                utility, bound, self.state.steps_since_replan
            )
        )
        info: dict[str, Any] = {"replanned": False, "reason": reason, "migrations": 0}
        if reason is not None:
            budget = None if forced else self.replan_policy.migration_budget
            try:
                report = self.state.apply_rebalance(
                    ctx=ctx, max_migrations=budget, reason=reason
                )
            except SolveTimeout as exc:
                # The incremental state is still feasible; keep serving it.
                info["error"] = f"replan abandoned: {exc}"
                if self._sink is not None:
                    self._sink.emit({"type": "replan", "reason": reason, "ok": False})
            else:
                ctx.count(SERVICE_REPLANS)
                ctx.count(SERVICE_MIGRATIONS, report.migrations)
                utility = self.state.total_utility()
                info.update(
                    replanned=True,
                    migrations=report.migrations,
                    utility_before=report.utility_before,
                    utility_after=report.utility_after,
                )
                if self._sink is not None:
                    self._sink.emit(
                        {
                            "type": "replan",
                            "reason": reason,
                            "ok": True,
                            "migrations": report.migrations,
                            "utility_before": report.utility_before,
                            "utility_after": report.utility_after,
                            "bound": bound,
                        }
                    )
        self.last_bound = bound
        self.last_ratio = utility / bound if bound > 0 else 1.0
        self.last_certified_version = self.state.version
        self._observe_gap(utility, bound, version=self.state.version)
        self.metrics.gauge(
            GAUGE_BOUND, help="Super-optimal utility bound at last certification."
        ).set(bound)
        self.metrics.gauge(
            GAUGE_RATIO, help="Certified utility/bound ratio (guaranteed >= alpha)."
        ).set(self.last_ratio)
        info.update(utility=utility, bound=bound, ratio=self.last_ratio)
        return info

    # -- reads ---------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Cluster overview: sizes, utility, last certification, counters."""
        return {
            "version": self.state.version,
            "n_servers": self.state.n_servers,
            "capacity": self.state.capacity,
            "n_threads": self.state.n_threads,
            "total_utility": self.state.total_utility(),
            "server_loads": self._server_loads(),
            "queue_length": self.queue_length,
            "steps_since_replan": self.state.steps_since_replan,
            "last_bound": self.last_bound,
            "last_ratio": self.last_ratio,
            "last_certified_version": self.last_certified_version,
            "counters": self.counters.snapshot(),
        }

    def _identity(self) -> dict[str, Any]:
        return {"version": self.state.version}

    def _health_fields(self) -> tuple[bool, dict[str, Any]]:
        return True, {
            "n_threads": self.state.n_threads,
            "queue_length": self.queue_length,
            "total_utility": self.state.total_utility(),
            "last_bound": self.last_bound,
            "last_ratio": self.last_ratio,
            "last_certified_version": self.last_certified_version,
        }

    def _read(self, req: Request) -> Response:
        """Status, point reads and state snapshots."""
        if isinstance(req, QueryAssignment):
            if req.thread_id is None:
                return Response.success(req.op, request_id=req.request_id, **self.status())
            try:
                server, allocation = self.state.scheduler.placement_of(req.thread_id)
            except KeyError:
                return Response.failure(
                    req.op,
                    f"unknown thread {req.thread_id!r}",
                    request_id=req.request_id,
                )
            return Response.success(
                req.op,
                request_id=req.request_id,
                thread_id=req.thread_id,
                server=server,
                allocation=allocation,
                version=self.state.version,
            )
        if isinstance(req, Snapshot):
            if req.path is not None:
                from repro.service.snapshot import save_snapshot

                save_snapshot(self.state, req.path)
                return Response.success(
                    req.op,
                    request_id=req.request_id,
                    path=req.path,
                    version=self.state.version,
                )
            return Response.success(
                req.op,
                request_id=req.request_id,
                state=self.state.to_dict(),
                version=self.state.version,
            )
        raise ValueError(f"not a read request: {req.op!r}")

    # -- batch entry point -----------------------------------------------------

    def process(
        self,
        requests: list[Request],
        transport_info: dict[str, Any] | None = None,
    ) -> list[Response]:
        """Serve one batch: coalesce all mutations, then answer all reads.

        This is the transport entry point.  Responses come back in request
        order; every mutation in the batch is applied (as one incremental
        step) before any read in the same batch is answered.

        ``transport_info`` carries transport-side measurements (currently
        ``coalesce_wait_s``, the time from the batch's first TCP line to
        this call).  When any request carries a
        :class:`~repro.service.api.TraceContext`, the whole batch runs
        under a per-batch :class:`~repro.observability.Tracer` and the
        first traced request of each trace ferries the stitched span
        snapshot home in ``Response.trace``; the untraced path stays a
        single ``None`` check per batch.
        """
        tracer = self._batch_tracer(requests, transport_info)
        slots: list[Response | None] = [None] * len(requests)
        queued: list[int] = []
        for k, req in enumerate(requests):
            if req.op in MUTATING_OPS:
                rejection = self.enqueue(req)
                if rejection is not None:
                    slots[k] = rejection
                else:
                    queued.append(k)
        step_responses = self.step(tracer)
        # step() drains the whole queue; our requests are the tail of it.
        for k, resp in zip(queued, step_responses[-len(queued):] if queued else []):
            slots[k] = resp
        for k, req in enumerate(requests):
            if slots[k] is None:
                self.counters.add(SERVICE_REQUESTS)
                slots[k] = self._handle_read(req)
        if tracer is not None:
            self._attach_trace(requests, slots, tracer)
        return slots  # type: ignore[return-value]
