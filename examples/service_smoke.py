#!/usr/bin/env python3
"""Allocation-service smoke run (also the CI service job).

Drives an :class:`~repro.service.AllocationService` over the in-process
transport through a full daemon lifecycle: a burst of arrivals (one
coalesced step), churn with departures, an explicit rebalance, the
certification check against the super-optimal bound, and a snapshot +
restore that must reproduce the cluster state bit-identically.  A second
daemon then serves the paper's own workload (Section VII quadspline
utilities, which the scheduler packs into one array batch): every submit
must be admitted and the certified ratio must stay at least α.  Exits
non-zero on any violated invariant.

Run:  PYTHONPATH=src python examples/service_smoke.py
"""

import sys

from repro.core.problem import ALPHA
from repro.observability import SERVICE_ARRIVALS, SERVICE_STEPS
from repro.service import (
    AllocationService,
    ClusterState,
    InProcessTransport,
    QueryAssignment,
    Rebalance,
    RemoveThread,
    Snapshot,
    SubmitThread,
)
from repro.utility.batch import QuadSplineBatch
from repro.utility.functions import LogUtility, SaturatingUtility
from repro.workloads import UniformDistribution, paper_utilities

N_SERVERS = 3
CAPACITY = 100.0


def main() -> int:
    service = AllocationService(ClusterState(N_SERVERS, CAPACITY))
    bus = InProcessTransport(service)

    # One burst of 9 mixed-utility arrivals must coalesce into ONE step.
    arrivals = [
        SubmitThread(f"log{k}", LogUtility(1.0 + k, 2.0, CAPACITY)) for k in range(5)
    ] + [
        SubmitThread(f"sat{k}", SaturatingUtility(2.0 + k, 10.0, CAPACITY))
        for k in range(4)
    ]
    responses = bus.request(*arrivals)
    assert all(r.ok for r in responses), [r.error for r in responses]
    assert service.counters[SERVICE_STEPS] == 1, "burst did not coalesce"
    assert service.counters[SERVICE_ARRIVALS] == 9

    # Churn: drop two threads, then force a full re-solve.
    responses = bus.request(RemoveThread("log0"), RemoveThread("sat3"), Rebalance())
    assert all(r.ok for r in responses), [r.error for r in responses]

    # The daemon must certify at the paper's worst-case guarantee.
    status = bus.request(QueryAssignment())[0].data
    ratio = status["last_ratio"]
    assert ratio >= ALPHA - 1e-9, f"certified ratio {ratio:.4f} below α={ALPHA:.4f}"

    # Snapshot + restore must reproduce the state bit-identically.
    snap = bus.request(Snapshot())[0]
    restored = ClusterState.from_dict(snap.data["state"])
    assert restored.to_dict() == service.state.to_dict(), "snapshot round trip drifted"

    # The restored daemon keeps serving.
    svc2 = AllocationService(restored)
    resp = InProcessTransport(svc2).request(
        SubmitThread("late", LogUtility(3.0, 2.0, CAPACITY))
    )[0]
    assert resp.ok, resp.error

    paper = paper_smoke()
    print(
        f"service smoke OK: {status['n_threads']} threads on {N_SERVERS} servers, "
        f"utility {status['total_utility']:.4f} = {ratio:.4f} × bound "
        f"(α = {ALPHA:.4f}), snapshot round trip bit-identical; "
        f"{paper['n_threads']} paper threads certified at {paper['last_ratio']:.4f}"
    )
    return 0


def paper_smoke() -> dict:
    """Paper quadspline churn: no refusals, ratio >= α, packed residents."""
    service = AllocationService(ClusterState(N_SERVERS, CAPACITY))
    bus = InProcessTransport(service)
    utilities = paper_utilities(UniformDistribution(), 60, CAPACITY, seed=7).functions()
    # Blocks of eight submits, each block also retiring the two oldest threads.
    for start in range(0, len(utilities), 8):
        block = [
            SubmitThread(f"q{start + k}", f)
            for k, f in enumerate(utilities[start:start + 8])
        ]
        if start:
            block += [RemoveThread(f"q{start - 8}"), RemoveThread(f"q{start - 7}")]
        responses = bus.request(*block)
        refused = [r.error for r in responses if not r.ok]
        assert not refused, f"paper submits refused: {refused}"
    assert isinstance(service.state.scheduler.problem().utilities, QuadSplineBatch), (
        "paper quadsplines were not packed into one array batch"
    )
    status = bus.request(QueryAssignment())[0].data
    ratio = status["last_ratio"]
    assert ratio >= ALPHA - 1e-9, f"paper certified ratio {ratio:.4f} below α={ALPHA:.4f}"
    return status


if __name__ == "__main__":
    sys.exit(main())
