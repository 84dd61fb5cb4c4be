"""write_atomic and the three JSON writers built on it.

A real power loss cannot be simulated here; these tests check the two
orderings that make it safe: the data is fsynced before the rename, and
a failed rename leaves the old file and no temp file behind.
"""

import os

import pytest

from repro.observability import FlightRecorder
from repro.observability.flightrecorder import write_flight
from repro.service import AllocationService, ClusterState, save_snapshot
from repro.service.fleet import FleetCoordinator
from repro.service.fleet.snapshot import save_fleet_snapshot
from repro.utils.atomic import write_atomic

WRITERS = {
    "text": lambda path: write_atomic(path, "new"),
    "service": lambda path: save_snapshot(ClusterState(2, 10.0), path),
    "fleet": lambda path: save_fleet_snapshot(
        FleetCoordinator([AllocationService(ClusterState(1, 10.0))]), path
    ),
    "flight": lambda path: write_flight(FlightRecorder().snapshot(), str(path)),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rename_keeps_the_old_file_and_no_temp(writer, tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        WRITERS[writer](path)
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_temp_file_is_fsynced_before_the_rename(writer, tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    calls: list[tuple[str, int]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    WRITERS[writer](path)
    assert [op for op, _ in calls] == ["fsync", "replace"]
    assert calls[0][1] == calls[1][1] == os.stat(path).st_ino
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_missing_directory_raises_and_writes_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_atomic(tmp_path / "absent" / "out.json", "x")
    assert list(tmp_path.iterdir()) == []
