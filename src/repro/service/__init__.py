"""The allocation service: a stateful, batching AA daemon.

This package turns the batch library into a long-running system.  An
:class:`AllocationService` owns a versioned :class:`ClusterState`, absorbs
thread arrivals/departures in **coalesced incremental steps** (greedy
placement — no solver run per request), triggers a full Algorithm-2
re-solve only when its :class:`ReplanPolicy` fires, refuses work per its
:class:`AdmissionPolicy`, and snapshots itself to disk for warm restarts.

Typical embedded use::

    from repro.service import (
        AllocationService, ClusterState, InProcessTransport, SubmitThread,
    )

    svc = AllocationService(ClusterState(n_servers=4, capacity=100.0))
    bus = InProcessTransport(svc)
    responses = bus.request(*[SubmitThread(f"t{i}", some_utility) for i in range(20)])

Over the network, the same requests flow as JSON lines through
:class:`TcpServer` / :class:`Client` (CLI: ``aart serve`` / ``aart client``).

A :class:`FleetCoordinator` fronts N services with the same protocol.
Both front doors answer reads through one shared surface
(:mod:`repro.service.frontdoor`): metrics, ``/healthz``, the flight
ring, ``QueryFlight`` and ``QueryMetrics`` are written once, and each
class adds only what differs (the service its version, point reads and
state snapshot; the coordinator its shard fan-out and composed
certificate).
"""

from repro.service.api import (
    MUTATING_OPS,
    PROTOCOL,
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
from repro.service.fleet import (
    FLEET_SNAPSHOT_FORMAT,
    FleetCertificate,
    FleetCoordinator,
    FleetPolicy,
    ShardCertificate,
    ShardRouter,
    compose_certificates,
    fleet_snapshot_from_dict,
    fleet_snapshot_to_dict,
    load_fleet_snapshot,
    save_fleet_snapshot,
)
from repro.service.httpd import MetricsHttpServer
from repro.service.policy import AdmissionPolicy, ReplanPolicy
from repro.service.server import AllocationService
from repro.service.snapshot import (
    SNAPSHOT_FORMAT,
    load_snapshot,
    save_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
)
from repro.service.state import STATE_FORMAT, ClusterState
from repro.service.transport import Client, InProcessTransport, TcpServer

__all__ = [
    "FLEET_SNAPSHOT_FORMAT",
    "MUTATING_OPS",
    "PROTOCOL",
    "SNAPSHOT_FORMAT",
    "STATE_FORMAT",
    "AdmissionPolicy",
    "AllocationService",
    "Client",
    "ClusterState",
    "FleetCertificate",
    "FleetCoordinator",
    "FleetPolicy",
    "InProcessTransport",
    "MetricsHttpServer",
    "QueryAssignment",
    "QueryFlight",
    "QueryMetrics",
    "Rebalance",
    "RemoveThread",
    "ReplanPolicy",
    "Request",
    "Response",
    "ShardCertificate",
    "ShardRouter",
    "Snapshot",
    "SubmitThread",
    "TcpServer",
    "TraceContext",
    "UpdateCapacity",
    "compose_certificates",
    "fleet_snapshot_from_dict",
    "fleet_snapshot_to_dict",
    "load_fleet_snapshot",
    "load_snapshot",
    "request_from_dict",
    "request_to_dict",
    "response_from_dict",
    "response_to_dict",
    "save_fleet_snapshot",
    "save_snapshot",
    "snapshot_from_dict",
    "snapshot_to_dict",
]
