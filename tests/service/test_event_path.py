"""One event path: every service and fleet event reaches each attached sink once.

Both front doors build a single event sink from the caller's sink and the
flight recorder.  Steps, re-solves and gap alerts all go through it, so
each notable event must land exactly once in the sink and exactly once in
the flight ring, in the same order and with the same fields.
"""

from collections import Counter

import pytest

from repro.observability import (
    SERVICE_REPLANS,
    SERVICE_STEPS,
    FlightRecorder,
    GapMonitor,
    MemorySink,
)
from repro.service import (
    AllocationService,
    ClusterState,
    FleetCoordinator,
    Rebalance,
    SubmitThread,
)
from repro.utility.functions import LogUtility

CAP = 10.0


def _service_front(sink, flight):
    svc = AllocationService(
        ClusterState(2, CAP), sink=sink, flight=flight, gap=GapMonitor(threshold=1.5)
    )
    kinds = ("step", "replan", "gap_alert")
    counts = lambda: {  # noqa: E731
        "step": svc.counters[SERVICE_STEPS],
        "replan": svc.counters[SERVICE_REPLANS],
        "gap_alert": svc.gap.breaches,
    }
    return svc, kinds, counts


def _fleet_front(sink, flight):
    shards = [AllocationService(ClusterState(2, CAP)) for _ in range(2)]
    fleet = FleetCoordinator(
        shards, sink=sink, flight=flight, gap=GapMonitor(threshold=1.5)
    )
    kinds = ("fleet_step", "fleet_rebalance", "gap_alert")
    counts = lambda: {  # noqa: E731
        "fleet_step": fleet.steps,
        "fleet_rebalance": fleet.rebalances,
        "gap_alert": fleet.gap.breaches,
    }
    return fleet, kinds, counts


@pytest.mark.parametrize("make_front", [_service_front, _fleet_front], ids=["service", "fleet"])
def test_each_event_lands_once_in_sink_and_flight_ring(make_front):
    sink, flight = MemorySink(), FlightRecorder()
    front, kinds, counts = make_front(sink, flight)
    assert all(r.ok for r in front.process([SubmitThread("a", LogUtility(1.0, 1.0, CAP))]))
    assert all(r.ok for r in front.process([Rebalance()]))

    sunk = [e for e in sink.events if e["type"] in kinds]
    ringed = [e for e in flight.snapshot()["events"] if e["kind"] in kinds]
    # Every event the front counted reached the sink once (a threshold of
    # 1.5 makes every certified step an alert) ...
    want = counts()
    assert want["gap_alert"] >= 2 and all(n >= 1 for n in want.values())
    assert Counter(e["type"] for e in sunk) == want
    # ... and the flight ring holds the same events, in the same order.
    assert [e["kind"] for e in ringed] == [e["type"] for e in sunk]
    for ring_entry, event in zip(ringed, sunk):
        fields = {k: v for k, v in ring_entry.items() if k not in ("kind", "t", "seq")}
        assert fields == {k: v for k, v in event.items() if k != "type"}
