"""The fleet coordinator: one front door over N allocation shards.

:class:`FleetCoordinator` speaks the *same* typed request API as a single
:class:`~repro.service.server.AllocationService` — submit / remove /
capacity / rebalance / query / metrics / snapshot — but owns no cluster
state itself.  It holds a transport per shard (in-process or TCP, any
object with ``request(*reqs) -> list[Response]``), routes each request to
the shard that should serve it, and keeps exactly three pieces of its own
state, all cheap:

* the :class:`~repro.service.fleet.router.ShardRouter` (where do *new*
  threads go);
* a location map (where does each thread *live now* — migrations make
  this diverge from the router);
* the utility of every resident thread (recorded as submissions stream
  through; migrating a thread means re-submitting its utility elsewhere).

The coordinator and the service share one read surface,
:class:`~repro.service.frontdoor.FrontDoor`: ``handle``,
``metrics_text``, ``health``, ``flight_snapshot`` and the
``QueryFlight`` / ``QueryMetrics`` answers are written once, and the
coordinator adds only its per-shard fan-out (shard-labelled metrics,
shard rings, shard gap monitors) and its composed certificate.  So the
existing :class:`~repro.service.transport.TcpServer` and
:class:`~repro.service.httpd.MetricsHttpServer` front it unchanged — a
fleet looks exactly like a bigger service.

**Cross-shard rebalance** is driven by the market signals every shard
already exports: certified ``F/F̂`` ratios and residual-capacity gauges
(via status / ``QueryMetrics``) pick the donor (least free capacity) and
receiver (most free capacity); per-thread marginal-utility quotes — the
``projected_gain`` each submit response carries — price every candidate
move at the receiver.  Moves are *optimistic with verification*: remove
from the donor, submit to the receiver, compare the summed shard
utilities before and after, and roll the thread back unless fleet
utility strictly increased.  A migration budget caps applied moves.

**Certification** composes per the lemma in
:mod:`repro.service.fleet.certificate`: the fleet ratio is sandwiched by
the min/max shard ratios, so per-shard α guarantees aggregate to a
fleet-wide ``F ≥ α·F̂`` with ``F̂ = Σ_k F̂_k``.  A fleet-level
:class:`~repro.observability.GapMonitor` re-checks that floor after
every coalesced fleet step and turns ``/healthz`` into a fleet-wide
correctness alarm.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator, Sequence

from repro.observability import (
    FLEET_BOUND,
    FLEET_MIGRATION_ROLLBACKS,
    FLEET_MIGRATIONS,
    FLEET_RATIO,
    FLEET_REBALANCES,
    FLEET_REQUESTS,
    FLEET_SHARDS,
    FLEET_STEPS,
    FLEET_THREADS,
    FLEET_UTILITY,
    SHARD_LABEL,
    EventSink,
    FlightRecorder,
    GapMonitor,
    MetricsRegistry,
    Tracer,
    relabel_snapshot,
)
from repro.serialization import utility_from_dict
from repro.service.api import (
    MUTATING_OPS,
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
)
from repro.service.fleet.certificate import (
    FleetCertificate,
    ShardCertificate,
    compose_certificates,
)
from repro.service.fleet.router import ShardRouter
from repro.service.frontdoor import FrontDoor, Reading
from repro.service.server import AllocationService
from repro.service.transport import InProcessTransport


@dataclass(frozen=True)
class FleetPolicy:
    """When does the coordinator run a cross-shard rebalance?

    Parameters
    ----------
    rebalance_interval:
        Run one cross-shard pass after this many coalesced fleet steps
        (``None`` disables the interval trigger).
    imbalance_threshold:
        Run when the spread of normalized residual capacity — free
        capacity over total capacity, per shard — exceeds this fraction
        (``None`` disables; 0.25 means "one shard has 25 points more
        free capacity than another").
    migration_budget:
        Maximum threads one cross-shard pass may migrate (``None`` =
        unbounded).
    min_gain:
        A candidate move is kept only when fleet utility increases by
        more than this (absolute); below it the move is rolled back.
    """

    rebalance_interval: int | None = 8
    imbalance_threshold: float | None = 0.25
    migration_budget: int | None = 8
    min_gain: float = 1e-9

    def __post_init__(self):
        if self.rebalance_interval is not None and self.rebalance_interval < 1:
            raise ValueError("rebalance_interval must be >= 1 (or None)")
        if self.imbalance_threshold is not None and not (
            0.0 <= self.imbalance_threshold <= 1.0
        ):
            raise ValueError("imbalance_threshold must be in [0, 1] (or None)")
        if self.migration_budget is not None and self.migration_budget < 0:
            raise ValueError("migration_budget must be nonnegative (or None)")
        if self.min_gain < 0:
            raise ValueError("min_gain must be nonnegative")

    def should_rebalance(
        self, steps_since_rebalance: int, residual_fractions: Sequence[float]
    ) -> str | None:
        """The trigger that fired (``"interval"`` / ``"imbalance"``), or None."""
        if (
            self.imbalance_threshold is not None
            and len(residual_fractions) >= 2
            and max(residual_fractions) - min(residual_fractions)
            > self.imbalance_threshold
        ):
            return "imbalance"
        if (
            self.rebalance_interval is not None
            and steps_since_rebalance >= self.rebalance_interval
        ):
            return "interval"
        return None


def _residual(status: dict[str, Any]) -> float:
    """Total free capacity of one shard, from its status dict."""
    cap = float(status["capacity"])
    return sum(cap - float(load) for load in status["server_loads"])


def _residual_fraction(status: dict[str, Any]) -> float:
    """Free capacity as a fraction of the shard's total capacity."""
    total = float(status["capacity"]) * max(int(status["n_servers"]), 1)
    if total <= 0:
        return 0.0
    return _residual(status) / total


def _accepted(k: int, resp: Response, what: str) -> dict[str, Any]:
    """A shard reply's payload; a refusal raises."""
    if not resp.ok:
        raise RuntimeError(f"shard {k} refused {what}: {resp.error}")
    return resp.data


def _with_shard(resp: Response, shard: int) -> Response:
    """A shard's reply stamped with its shard (a ferried trace is dropped)."""
    return Response(resp.ok, resp.op, {**resp.data, "shard": shard}, resp.error, resp.request_id)


class FleetCoordinator(FrontDoor):
    """Routes the allocation-service protocol across N shards.

    Parameters
    ----------
    shards:
        One transport per shard — anything with
        ``request(*reqs) -> list[Response]`` (an
        :class:`~repro.service.transport.InProcessTransport`, a TCP
        :class:`~repro.service.transport.Client`, …).  Bare
        :class:`~repro.service.server.AllocationService` instances are
        wrapped in in-process transports for convenience.
    router:
        Thread→shard placement (default: unweighted rendezvous hashing
        over the shard count).
    policy:
        Cross-shard rebalance triggers and budget (default
        :class:`FleetPolicy`).
    sink:
        Optional event sink receiving ``fleet_step`` / ``fleet_rebalance``
        / ``fleet_migration`` / ``gap_alert`` events.
    metrics, gap:
        Fleet-level instrument registry and α-guarantee monitor (created
        fresh when omitted; the gap monitor watches the *composed*
        certificate, and its alerts go to ``sink`` and ``flight``).
    sync:
        When True (default), rebuild the location/utility maps from the
        shards' snapshots at construction — required when attaching to
        shards that already hold threads (e.g. a warm restart).
    flight:
        Optional :class:`~repro.observability.FlightRecorder`; every
        emitted fleet event is teed into it, and ``QueryFlight`` /
        ``/debug/flight`` answer from its ring (per-shard rings are
        gathered alongside when the shards carry recorders too).
    """

    def __init__(
        self,
        shards: Iterable[Any],
        router: ShardRouter | None = None,
        policy: FleetPolicy | None = None,
        sink: EventSink | None = None,
        metrics: MetricsRegistry | None = None,
        gap: GapMonitor | None = None,
        sync: bool = True,
        flight: FlightRecorder | None = None,
    ):
        transports = [
            InProcessTransport(s) if isinstance(s, AllocationService) else s
            for s in shards
        ]
        if not transports:
            raise ValueError("need at least one shard")
        for t in transports:
            if not callable(getattr(t, "request", None)):
                raise TypeError(f"shard {t!r} has no request(...) method")
        self.transports = transports
        self.router = router if router is not None else ShardRouter(len(transports))
        if self.router.n_shards != len(transports):
            raise ValueError(
                f"router covers {self.router.n_shards} shards but "
                f"{len(transports)} transports were given"
            )
        self.policy = policy or FleetPolicy()
        super().__init__(sink, metrics, gap, flight)
        self._lock = threading.Lock()
        self._location: dict[str, int] = {}
        self._utilities: dict[str, Any] = {}
        self.steps_since_rebalance = 0
        self.last_certificate: FleetCertificate | None = None
        if sync:
            self.sync_from_shards()

    # -- plumbing --------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.transports)

    @property
    def steps(self) -> int:
        """Coalesced fleet steps so far (the ``fleet_steps`` counter)."""
        return self.counters.get(FLEET_STEPS, 0)

    @property
    def migrations(self) -> int:
        """Threads moved between shards so far (``fleet_migrations``)."""
        return self.counters.get(FLEET_MIGRATIONS, 0)

    @property
    def rebalances(self) -> int:
        """Cross-shard rebalance passes so far (``fleet_rebalances``)."""
        return self.counters.get(FLEET_REBALANCES, 0)

    @property
    def n_threads(self) -> int:
        with self._lock:
            return len(self._location)

    def locate(self, thread_id: str) -> int | None:
        """The shard currently hosting ``thread_id`` (None if unknown)."""
        with self._lock:
            return self._location.get(thread_id)

    def _fan_out(self, request: Request) -> Iterator[tuple[int, Response]]:
        """``(k, reply)`` from each shard in turn, refusals included: the
        caller decides what a refusal means."""
        for k, transport in enumerate(self.transports):
            yield k, transport.request(request)[0]

    def sync_from_shards(self) -> None:
        """Rebuild the location/utility maps from shard snapshots.

        Call after attaching to shards whose residents this coordinator
        did not route itself (warm restart, failover).
        """
        location: dict[str, int] = {}
        utilities: dict[str, Any] = {}
        for k, resp in self._fan_out(Snapshot()):
            for entry in _accepted(k, resp, "snapshot")["state"]["scheduler"]["threads"]:
                tid = entry["id"]
                if tid in location:
                    raise RuntimeError(
                        f"thread {tid!r} resident on shards {location[tid]} and {k}"
                    )
                location[tid] = k
                utilities[tid] = utility_from_dict(entry["utility"])
        with self._lock:
            self._location = location
            self._utilities = utilities

    # -- shard reads -----------------------------------------------------------

    def _gather_statuses(self) -> list[dict[str, Any]]:
        """One status dict per shard (a read round per shard)."""
        return [_accepted(k, r, "status") for k, r in self._fan_out(QueryAssignment())]

    def _certify(self, statuses: Sequence[dict[str, Any]]) -> FleetCertificate:
        """Compose the fleet certificate and keep it as ``last_certificate``.

        Reads call this too, so it leaves the gap monitor alone: only a
        mutating batch in :meth:`_process` counts as a certified step.
        """
        cert = compose_certificates(
            ShardCertificate(
                shard=k,
                utility=float(s["total_utility"]),
                bound=s["last_bound"],
                n_threads=int(s["n_threads"]),
                version=int(s["version"]),
            )
            for k, s in enumerate(statuses)
        )
        with self._lock:
            self.last_certificate = cert
        return cert

    # -- the fleet batch -------------------------------------------------------

    def process(
        self,
        requests: list[Request],
        transport_info: dict[str, Any] | None = None,
    ) -> list[Response]:
        """Serve one batch fleet-wide: route, coalesce per shard, certify.

        Mirrors :meth:`AllocationService.process` semantics one level up:
        all mutations land (each shard coalesces its slice into one
        incremental step) before any read is answered; at most one
        cross-shard rebalance runs per batch (forced by a ``Rebalance``
        request, or fired by the :class:`FleetPolicy`).

        When a request carries a :class:`~repro.service.api.TraceContext`
        the batch runs under a per-batch tracer: the coordinator's
        route / per-shard dispatch / certify phases become spans, shard
        transports forward child contexts so each shard's ferried span
        tree grafts under its dispatch span, and the combined snapshot is
        ferried back to the client — one stitched tree across all three
        processes.  The untraced path stays a single ``None`` check.
        """
        tracer = self._batch_tracer(requests, transport_info)
        if tracer is None:
            return self._process(requests, None)
        with tracer.span("fleet.process", n=len(requests)):
            slots = self._process(requests, tracer)
        self._attach_trace(requests, slots, tracer)
        return slots  # type: ignore[arg-type]

    def _process(
        self, requests: list[Request], tracer: Tracer | None
    ) -> list[Response]:
        self.counters.add(FLEET_REQUESTS, len(requests))
        slots: list[Response | None] = [None] * len(requests)
        shard_writes: dict[int, list[int]] = {}
        broadcasts: list[int] = []
        rebalance_slots: list[int] = []
        read_slots: list[int] = []

        t_route = time.monotonic()
        route_span = (
            tracer.span("fleet.route") if tracer is not None else nullcontext()
        )
        with route_span, self._lock:
            for i, req in enumerate(requests):
                if isinstance(req, SubmitThread):
                    shard = self._location.get(req.thread_id)
                    if shard is None:
                        shard = self.router.route(req.thread_id)
                    shard_writes.setdefault(shard, []).append(i)
                elif isinstance(req, RemoveThread):
                    shard = self._location.get(req.thread_id)
                    if shard is None:
                        slots[i] = Response.failure(
                            req.op,
                            f"unknown thread {req.thread_id!r}",
                            request_id=req.request_id,
                        )
                    else:
                        shard_writes.setdefault(shard, []).append(i)
                elif isinstance(req, UpdateCapacity):
                    broadcasts.append(i)
                elif isinstance(req, Rebalance):
                    rebalance_slots.append(i)
                elif req.op in MUTATING_OPS:  # future-proofing
                    slots[i] = Response.failure(
                        req.op, f"fleet cannot route op {req.op!r}"
                    )
                else:
                    read_slots.append(i)

        self._observe_phase("batch", "route", time.monotonic() - t_route)
        mutated = bool(shard_writes) or bool(broadcasts) or bool(rebalance_slots)

        # Phase 1: one coalesced batch per shard (its writes + broadcasts),
        # each with a trailing status probe answered post-step.
        statuses: list[dict[str, Any] | None] = [None] * self.n_shards
        touched = set(shard_writes)
        if broadcasts:
            touched = set(range(self.n_shards))
        broadcast_replies: dict[int, list[Response]] = {i: [] for i in broadcasts}
        for shard in sorted(touched):
            idxs = shard_writes.get(shard, [])
            batch: list[Request] = [requests[i] for i in idxs]
            batch.extend(requests[i] for i in broadcasts)
            batch.append(QueryAssignment())
            t_shard = time.monotonic()
            replies = self._dispatch(shard, batch, tracer)
            self._observe_phase(
                "batch", "dispatch", time.monotonic() - t_shard, **{SHARD_LABEL: str(shard)}
            )
            for i, resp in zip(idxs, replies):
                slots[i] = self._record_write(requests[i], resp, shard)
            for i, resp in zip(broadcasts, replies[len(idxs):-1]):
                broadcast_replies[i].append(resp)
            statuses[shard] = replies[-1].data
        for i in broadcasts:
            slots[i] = self._merge_broadcast(requests[i], broadcast_replies[i])

        # Phase 2: at most one cross-shard rebalance for the whole batch.
        rebalance_info: dict[str, Any] | None = None
        if rebalance_slots:
            rebalance_info = self.rebalance(reason="requested", per_shard=True)
            statuses = list(self._gather_statuses())
        elif mutated:
            with self._lock:
                self.steps_since_rebalance += 1
            self.counters.add(FLEET_STEPS)
            full = [
                s if s is not None else self.transports[k].request(QueryAssignment())[0].data
                for k, s in enumerate(statuses)
            ]
            statuses = full
            reason = self.policy.should_rebalance(
                self.steps_since_rebalance,
                [_residual_fraction(s) for s in statuses],
            )
            if reason is not None:
                self.rebalance(reason=reason, per_shard=False)
                statuses = list(self._gather_statuses())
        if rebalance_slots:
            self.counters.add(FLEET_STEPS)
            for i in rebalance_slots:
                req = requests[i]
                assert rebalance_info is not None
                slots[i] = Response.success(
                    req.op, request_id=req.request_id, **rebalance_info
                )

        # Certify the post-batch fleet (only when something changed).
        if mutated:
            t_cert = time.monotonic()
            certify_span = (
                tracer.span("fleet.certify")
                if tracer is not None
                else nullcontext()
            )
            with certify_span:
                known = [s for s in statuses if s is not None]
                if len(known) < self.n_shards:
                    statuses = list(self._gather_statuses())
                    known = [s for s in statuses if s is not None]
                cert = self._certify(known)
                if cert.complete:
                    # A breach alert points at the binding shard (min
                    # ratio), under the label key the shard-relabeled
                    # exposition uses.
                    binding = cert.min_shard
                    label = {} if binding is None else {SHARD_LABEL: str(binding)}
                    self._observe_gap(
                        cert.utility, cert.bound, step=self.steps, fleet=True, **label
                    )
            self._observe_phase("batch", "certify", time.monotonic() - t_cert)
            if self._sink is not None:
                self._sink.emit(
                    {
                        "type": "fleet_step",
                        "batch_size": len(requests),
                        "step": self.steps,
                        "n_threads": self.n_threads,
                        "utility": cert.utility,
                        "bound": cert.bound if cert.complete else None,
                        "ratio": cert.ratio,
                    }
                )

        # Phase 3: reads, against the post-step fleet.
        for i in read_slots:
            slots[i] = self._handle_read(requests[i])
        assert all(r is not None for r in slots)
        return slots  # type: ignore[return-value]

    def request(self, *requests: Request) -> list[Response]:
        """Transport-compatible alias: a coordinator can shard coordinators."""
        return self.process(list(requests))

    def _dispatch(
        self, shard: int, batch: list[Request], tracer: Tracer | None
    ) -> list[Response]:
        """Forward one coalesced batch to a shard transport.

        On the traced path the batch runs under a ``fleet.shard`` span:
        every forwarded request is re-stamped with a child
        :class:`~repro.service.api.TraceContext` naming that span, so
        the shard's ferried span snapshot grafts under it when merged
        here — and the merged tree rides home to the client in one piece.
        The ferried shard snapshots are consumed (merged) and do not leak
        into the responses returned to the caller.
        """
        if tracer is None:
            return self.transports[shard].request(*batch)
        with tracer.span("fleet.shard", shard=shard) as span_id:
            # Re-stamp EVERY forwarded request: a leaked client context
            # would make the shard stamp its snapshot with span ids from
            # the wrong (client) id space.
            ctx = TraceContext(tracer.trace_id, span_id)
            forwarded = [replace(r, trace=ctx) for r in batch]
            replies = self.transports[shard].request(*forwarded)
            out: list[Response] = []
            for resp in replies:
                if resp.trace is not None:
                    tracer.merge(resp.trace)
                    resp = replace(resp, trace=None)
                out.append(resp)
        return out

    def _record_write(self, req: Request, resp: Response, shard: int) -> Response:
        """Fold one shard write reply into the location/utility maps."""
        if resp.ok and isinstance(req, SubmitThread):
            with self._lock:
                self._location[req.thread_id] = shard
                self._utilities[req.thread_id] = req.utility
        elif resp.ok and isinstance(req, RemoveThread):
            with self._lock:
                self._location.pop(req.thread_id, None)
                self._utilities.pop(req.thread_id, None)
        return _with_shard(resp, shard)

    def _merge_broadcast(self, req: Request, replies: list[Response]) -> Response:
        """One response for a request applied to every shard."""
        errors = [
            f"shard {k}: {r.error}" for k, r in enumerate(replies) if not r.ok
        ]
        if errors:
            return Response.failure(req.op, "; ".join(errors), request_id=req.request_id)
        return Response.success(
            req.op,
            request_id=req.request_id,
            shards=[r.data for r in replies],
            **(replies[0].data if replies else {}),
        )

    # -- cross-shard rebalance -------------------------------------------------

    def rebalance(
        self,
        max_migrations: int | None = None,
        reason: str = "requested",
        per_shard: bool = False,
    ) -> dict[str, Any]:
        """One cross-shard rebalance pass; returns a JSON-ready report.

        ``per_shard=True`` first forwards a full ``Rebalance`` to every
        shard (restoring each to its α-certified optimum) before moving
        threads between shards.  ``max_migrations`` defaults to the
        policy's budget.  Moves are optimistic-with-verification: a move
        that does not strictly increase summed shard utility (beyond the
        policy's ``min_gain``) is rolled back and the pass stops.
        """
        budget = (
            max_migrations
            if max_migrations is not None
            else self.policy.migration_budget
        )
        self.counters.add(FLEET_REBALANCES)
        with self._lock:
            self.steps_since_rebalance = 0
        if per_shard:
            for transport in self.transports:
                transport.request(Rebalance())
        statuses = self._gather_statuses()
        utility_before = sum(float(s["total_utility"]) for s in statuses)
        moved, rollbacks, donor, receiver = self._migrate(statuses, budget)
        utility_after = sum(
            float(s["total_utility"]) for s in self._gather_statuses()
        )
        report = {
            "replanned": True,
            "reason": reason,
            "migrations": moved,
            "rollbacks": rollbacks,
            "donor": donor,
            "receiver": receiver,
            "utility_before": utility_before,
            "utility_after": utility_after,
            "per_shard": per_shard,
        }
        if self._sink is not None:
            self._sink.emit({"type": "fleet_rebalance", **report})
        return report

    def _migrate(
        self, statuses: list[dict[str, Any]], budget: int | None
    ) -> tuple[int, int, int | None, int | None]:
        """Move threads donor→receiver while fleet utility strictly rises.

        Returns ``(migrations, rollbacks, donor, receiver)``.
        """
        fractions = [_residual_fraction(s) for s in statuses]
        populated = [k for k, s in enumerate(statuses) if int(s["n_threads"]) > 0]
        if not populated or self.n_shards < 2 or budget == 0:
            return 0, 0, None, None
        donor = min(populated, key=lambda k: (fractions[k], k))
        receiver = max(range(self.n_shards), key=lambda k: (fractions[k], -k))
        if donor == receiver or fractions[receiver] <= fractions[donor]:
            return 0, 0, None, None

        with self._lock:
            donor_tids = sorted(
                t for t, s in self._location.items() if s == donor
            )
            utilities = {t: self._utilities[t] for t in donor_tids}
        if not donor_tids:
            return 0, 0, donor, receiver
        # Price each candidate at its *current* realized value on the
        # donor: the cheapest-to-move threads are the starved ones.
        placement_replies = self.transports[donor].request(
            *[QueryAssignment(thread_id=t) for t in donor_tids]
        )
        value_of: dict[str, float] = {}
        for tid, resp in zip(donor_tids, placement_replies):
            if resp.ok:
                value_of[tid] = float(
                    utilities[tid].value(float(resp.data["allocation"]))
                )
        candidates = sorted(value_of, key=lambda t: (value_of[t], t))

        moved = rollbacks = 0
        u_donor = float(statuses[donor]["total_utility"])
        u_receiver = float(statuses[receiver]["total_utility"])
        for tid in candidates:
            if budget is not None and moved >= budget:
                break
            fn = utilities[tid]
            removed = self.transports[donor].request(
                RemoveThread(tid), QueryAssignment()
            )
            if not removed[0].ok:
                continue
            new_u_donor = float(removed[1].data["total_utility"])
            submitted = self.transports[receiver].request(
                SubmitThread(tid, fn), QueryAssignment()
            )
            if not submitted[0].ok:
                self._return_thread(tid, fn, donor)
                rollbacks += 1
                self.counters.add(FLEET_MIGRATION_ROLLBACKS)
                continue
            new_u_receiver = float(submitted[1].data["total_utility"])
            gain = (new_u_donor + new_u_receiver) - (u_donor + u_receiver)
            if gain > self.policy.min_gain:
                with self._lock:
                    self._location[tid] = receiver
                moved += 1
                self.counters.add(FLEET_MIGRATIONS)
                u_donor, u_receiver = new_u_donor, new_u_receiver
                if self._sink is not None:
                    self._sink.emit(
                        {
                            "type": "fleet_migration",
                            "thread_id": tid,
                            "from": donor,
                            "to": receiver,
                            "gain": gain,
                            "quote": submitted[0].data.get("projected_gain"),
                        }
                    )
            else:
                undo = self.transports[receiver].request(RemoveThread(tid))
                if not undo[0].ok:
                    raise RuntimeError(
                        f"rollback failed: {tid!r} stuck on shard {receiver}: "
                        f"{undo[0].error}"
                    )
                self._return_thread(tid, fn, donor)
                rollbacks += 1
                self.counters.add(FLEET_MIGRATION_ROLLBACKS)
                # Candidates are priced cheapest-first; once a move stops
                # paying, the rest won't either.
                break
        return moved, rollbacks, donor, receiver

    def _return_thread(self, tid: str, fn: Any, shard: int) -> None:
        """Undo half of a failed move: re-admit ``tid`` on its old shard."""
        back = self.transports[shard].request(SubmitThread(tid, fn))
        if not back[0].ok:
            # Never silently lose a resident thread: an admission policy
            # that refuses re-admission makes migration unsafe.
            raise RuntimeError(
                f"rollback failed: {tid!r} refused by shard {shard}: "
                f"{back[0].error}"
            )

    # -- reads -----------------------------------------------------------------

    def certificate(self) -> FleetCertificate:
        """Compose a fresh fleet certificate from live shard statuses."""
        return self._certify(self._gather_statuses())

    def status(self) -> dict[str, Any]:
        """Fleet overview — a superset of one service's status keys.

        The single-service keys (``version``, ``n_servers``,
        ``capacity``, ``n_threads``, ``total_utility``, ``server_loads``,
        ``last_bound``, ``last_ratio``, …) aggregate across shards so
        existing clients (``aart client status``, ``aart top``) work
        against a coordinator endpoint unchanged; ``shards`` holds the
        per-shard breakdown and ``certificate`` the composed guarantee.
        """
        statuses = self._gather_statuses()
        cert = self._certify(statuses)
        loads: list[float] = []
        for s in statuses:
            loads.extend(float(x) for x in s["server_loads"])
        return {
            "fleet": True,
            "n_shards": self.n_shards,
            "version": sum(int(s["version"]) for s in statuses),
            "n_servers": sum(int(s["n_servers"]) for s in statuses),
            "capacity": max(float(s["capacity"]) for s in statuses),
            "n_threads": sum(int(s["n_threads"]) for s in statuses),
            "total_utility": cert.utility,
            "server_loads": loads,
            "queue_length": sum(int(s["queue_length"]) for s in statuses),
            "steps_since_replan": self.steps_since_rebalance,
            "last_bound": cert.bound if cert.complete else None,
            "last_ratio": cert.ratio,
            "last_certified_version": sum(int(s["version"]) for s in statuses),
            "steps": self.steps,
            "migrations": self.migrations,
            "rebalances": self.rebalances,
            "certificate": cert.to_dict(),
            "shards": [
                {"shard": k, **s} for k, s in enumerate(statuses)
            ],
            "counters": self.counters.snapshot(),
        }

    def _extra_snapshots(self) -> list[dict[str, Any]]:
        """Every shard's metrics snapshot, shard-labeled.

        Each shard's instruments are stamped with
        ``{SHARD_LABEL}="<k>"`` via
        :func:`~repro.observability.relabel_snapshot`, so N shards'
        identically-named canonical series coexist in one scrape beside
        the fleet-level gauges and lifetime counters (unlabeled).  A
        shard that refuses is left out.
        """
        return [
            relabel_snapshot(resp.data["metrics"], **{SHARD_LABEL: str(k)})
            for k, resp in self._fan_out(QueryMetrics())
            if resp.ok
        ]

    def _extra_flight(self) -> dict[str, Any]:
        """Every shard's ring under ``shards``, beside the coordinator's.

        A shard without a recorder (or that refuses) contributes ``None``.
        """
        return {
            "shards": [
                resp.data.get("flight") if resp.ok else None
                for _, resp in self._fan_out(QueryFlight())
            ]
        }

    def _gauges(self) -> list[Reading]:
        """The shard count, and the fleet totals of ``last_certificate``."""
        readings: list[Reading] = [
            (FLEET_SHARDS, "Shards behind this coordinator.", self.n_shards, {})
        ]
        with self._lock:
            cert = self.last_certificate
        if cert is None:
            return readings
        n_threads = sum(c.n_threads for c in cert.shards)
        readings += [
            (FLEET_THREADS, "Threads resident across the whole fleet.", n_threads, {}),
            (FLEET_UTILITY, "Summed realized utility across shards.", cert.utility, {}),
        ]
        if cert.complete:
            readings += [
                (FLEET_BOUND, "Summed per-shard super-optimal bounds.", cert.bound, {}),
                (FLEET_RATIO, "Fleet utility/bound ratio (>= alpha by composition).",
                 cert.ratio, {}),
            ]
        return readings

    def _identity(self) -> dict[str, Any]:
        return {"fleet": True, "n_shards": self.n_shards}

    def _health_fields(self) -> tuple[bool, dict[str, Any]]:
        """``/healthz`` covers the whole fleet: every shard's own gap
        monitor must be clean too (a refusing shard counts as not ok)."""
        shard_gaps: list[dict[str, Any]] = []
        for k, resp in self._fan_out(QueryMetrics()):
            gap = resp.data.get("gap", {}) if resp.ok else {}
            ok = resp.ok and bool(gap.get("ok", False))
            shard_gaps.append({"shard": k, "ok": ok, "gap": gap})
        with self._lock:
            cert = self.last_certificate
        return all(s["ok"] for s in shard_gaps), {
            "n_threads": self.n_threads,
            "steps": self.steps,
            "migrations": self.migrations,
            "last_ratio": cert.ratio if cert is not None else None,
            "last_bound": (
                cert.bound if cert is not None and cert.complete else None
            ),
            "certificate": cert.to_dict() if cert is not None else None,
            "shards": shard_gaps,
        }

    def _read(self, req: Request) -> Response:
        """Status, point reads (asked of the owning shard), fleet snapshots."""
        if isinstance(req, QueryAssignment) and req.thread_id is not None:
            shard = self.locate(req.thread_id)
            if shard is None:
                return Response.failure(
                    req.op,
                    f"unknown thread {req.thread_id!r}",
                    request_id=req.request_id,
                )
            return _with_shard(self.transports[shard].request(req)[0], shard)
        if isinstance(req, QueryAssignment):
            return Response.success(req.op, request_id=req.request_id, **self.status())
        if isinstance(req, Snapshot):
            from repro.service.fleet.snapshot import (
                fleet_snapshot_to_dict,
                save_fleet_snapshot,
            )

            if req.path is not None:
                save_fleet_snapshot(self, req.path)
                return Response.success(
                    req.op, request_id=req.request_id, path=req.path, fleet=True
                )
            return Response.success(
                req.op,
                request_id=req.request_id,
                fleet=fleet_snapshot_to_dict(self),
            )
        raise ValueError(f"not a fleet read request: {req.op!r}")

    # -- serialization ---------------------------------------------------------

    def shard_states(self) -> list[dict[str, Any]]:
        """Every shard's state dict (one ``Snapshot`` round per shard)."""
        return [_accepted(k, r, "snapshot")["state"] for k, r in self._fan_out(Snapshot())]
