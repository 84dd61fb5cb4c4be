"""Fleet-wide atomic snapshot/restore (format ``aart-fleet-snapshot/1``).

One JSON document captures the *whole* fleet: the router config (so a
restarted coordinator routes new threads identically) and every shard's
full state dict — each the same bit-identical payload a single-service
``aart-snapshot/1`` wraps.  Restoring builds N fresh
:class:`~repro.service.server.AllocationService` shards from those
states and attaches a coordinator whose location/utility maps are
rebuilt by syncing from the shards, so a fleet warm restart preserves
residents, placements, allocations and versions exactly.

The snapshot is taken via each shard's ``Snapshot`` request — the reads
run post-step against quiesced shard state, and the coordinator issues
them from one call site, so the document is a consistent cut as long as
no writes race the capture (the CLI and smoke gate snapshot between
batches).  Writes go through a temp file plus ``os.replace``: a crash
mid-write never leaves a torn snapshot.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.service.state import ClusterState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.fleet.coordinator import FleetCoordinator

FLEET_SNAPSHOT_FORMAT = "aart-fleet-snapshot/1"


def fleet_snapshot_to_dict(coordinator: "FleetCoordinator") -> dict[str, Any]:
    """Capture the fleet: router config plus every shard's state dict."""
    return {
        "format": FLEET_SNAPSHOT_FORMAT,
        "n_shards": coordinator.n_shards,
        "router": coordinator.router.to_dict(),
        "shards": coordinator.shard_states(),
    }


def fleet_snapshot_from_dict(
    data: dict[str, Any], **coordinator_kwargs: Any
) -> "FleetCoordinator":
    """Rebuild a warm fleet from a snapshot envelope.

    Returns a coordinator over freshly-built in-process shards, each
    restored bit-identically from its state dict; extra keyword
    arguments (``policy=``, ``sink=``, …) pass through to
    :class:`~repro.service.fleet.coordinator.FleetCoordinator`.  When the
    coordinator gets a ``flight`` recorder, every shard gets its own ring
    too, so a flight dump shows what each shard did.
    """
    from repro.observability import FlightRecorder
    from repro.service.fleet.coordinator import FleetCoordinator
    from repro.service.fleet.router import ShardRouter
    from repro.service.server import AllocationService

    if data.get("format") != FLEET_SNAPSHOT_FORMAT:
        raise ValueError(
            f"not an {FLEET_SNAPSHOT_FORMAT} document "
            f"(format={data.get('format')!r})"
        )
    rings = coordinator_kwargs.get("flight") is not None
    shards = [
        AllocationService(
            state=ClusterState.from_dict(state),
            flight=FlightRecorder() if rings else None,
        )
        for state in data["shards"]
    ]
    n_shards = data.get("n_shards", len(shards))
    if n_shards != len(shards):
        raise ValueError(
            f"fleet snapshot declares {n_shards} shard(s) "
            f"but carries {len(shards)} state dict(s)"
        )
    return FleetCoordinator(
        shards,
        router=ShardRouter.from_dict(data["router"]),
        sync=True,
        **coordinator_kwargs,
    )


def save_fleet_snapshot(coordinator: "FleetCoordinator", path) -> None:
    """Atomically persist the fleet as JSON at ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(fleet_snapshot_to_dict(coordinator), indent=2))
    os.replace(tmp, path)


def load_fleet_snapshot(path, **coordinator_kwargs: Any) -> "FleetCoordinator":
    """Load a fleet snapshot written by :func:`save_fleet_snapshot`."""
    return fleet_snapshot_from_dict(
        json.loads(Path(path).read_text()), **coordinator_kwargs
    )
