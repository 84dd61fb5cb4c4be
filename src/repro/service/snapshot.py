"""Snapshot/restore of :class:`~repro.service.state.ClusterState` to disk.

The snapshot is one JSON document (format ``aart-snapshot/1``) wrapping
the state dict, so a restarted daemon comes back *warm*: same residents,
same placements, same allocations, same version and event log —
bit-identical to the state that was saved.  Writes go through
:func:`~repro.utils.atomic.write_atomic` (an fsynced temp file plus
``os.replace``), so a crash mid-write never leaves a torn snapshot.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.service.state import ClusterState
from repro.utils.atomic import write_atomic

SNAPSHOT_FORMAT = "aart-snapshot/1"


def snapshot_to_dict(state: ClusterState) -> dict[str, Any]:
    """Wrap a state dict in the snapshot envelope."""
    return {"format": SNAPSHOT_FORMAT, "state": state.to_dict()}


def snapshot_from_dict(data: dict[str, Any]) -> ClusterState:
    """Rebuild a :class:`ClusterState` from a snapshot envelope."""
    if data.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"not an {SNAPSHOT_FORMAT} document (format={data.get('format')!r})"
        )
    return ClusterState.from_dict(data["state"])


def save_snapshot(state: ClusterState, path) -> None:
    """Atomically persist ``state`` as JSON at ``path``."""
    write_atomic(path, json.dumps(snapshot_to_dict(state), indent=2))


def load_snapshot(path) -> ClusterState:
    """Load a snapshot written by :func:`save_snapshot`."""
    return snapshot_from_dict(json.loads(Path(path).read_text()))
