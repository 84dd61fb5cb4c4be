"""Seeded request traces and the open-loop / backlogged drivers.

A trace is generated in full before the first timed request, from the
seed alone.  Operations come in shuffled blocks with a fixed mix, so the
resident count follows the mix and not a random walk.  Targets respect the
service's batch semantics (within one coalesced batch, departures are
applied before arrivals and every write before any read): removals are
FIFO from the oldest residents, so none can name a thread submitted in its
own batch, and point reads pick from the older half but skip the oldest
quarter, so none can name a thread removed in its own batch.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.service import QueryAssignment, RemoveThread, SubmitThread
from repro.utility.quadspline import ConcaveQuadSpline
from repro.workloads.generators import UniformDistribution, draw_anchors

CAPACITY = 1000.0

#: Operations per shuffled block of the ``churn`` mix: 50% submit, 50% remove.
CHURN_MIX = {"submit": 1, "remove": 1}
#: ``fleet_tcp``: 40% submit, 35% remove, 20% point read, 5% status read.
FLEET_MIX = {"submit": 8, "remove": 7, "point": 4, "status": 1}


def paper_utilities(rng: np.random.Generator, n: int) -> list[ConcaveQuadSpline]:
    """``n`` scalar paper utilities (uniform anchors, quadratic spline)."""
    v, w = draw_anchors(UniformDistribution(), n, rng)
    return [ConcaveQuadSpline(float(a), float(b), CAPACITY) for a, b in zip(v, w)]


class RequestStream:
    """Generates requests against a resident set it tracks itself."""

    def __init__(self, rng: np.random.Generator, mix: dict[str, int]):
        self._rng = rng
        self._kinds = [kind for kind, count in mix.items() for _ in range(count)]
        self._pending: list[str] = []
        self._next_id = 0
        self.live: deque[str] = deque()

    def submit(self) -> SubmitThread:
        tid = f"t{self._next_id}"
        self._next_id += 1
        self.live.append(tid)
        (utility,) = paper_utilities(self._rng, 1)
        return SubmitThread(tid, utility)

    def next(self):
        if not self._pending:
            self._pending = [self._kinds[k] for k in self._rng.permutation(len(self._kinds))]
        kind = self._pending.pop()
        if kind == "submit" or not self.live:
            return self.submit()
        if kind == "remove":
            return RemoveThread(self.live.popleft())
        if kind == "point":
            # From the older half, but past the oldest quarter: a read
            # batched after the removal of its own target would fail.
            n = len(self.live)
            k = int(self._rng.integers(n // 4, max(n // 2, n // 4 + 1)))
            return QueryAssignment(thread_id=self.live[k])
        return QueryAssignment()

    def take(self, n: int) -> list:
        return [self.next() for _ in range(n)]


@dataclass
class Cycle:
    """An open-loop stretch, then backlogged blocks sent back to back."""

    due: np.ndarray  # intended send times, seconds from the cycle's start
    requests: list
    blocks: list  # lists of ``block`` requests


@dataclass
class Trace:
    """Everything one service run sends, generated before timing starts."""

    warm: list  # blocks of submits that fill the service before timing
    cycles: list

    def sent(self) -> list:
        """Every timed request, in send order."""
        return [r for c in self.cycles for r in c.requests + sum(c.blocks, [])]


def make_trace(seed_seq: np.random.SeedSequence, mix: dict[str, int], residents: int,
               rate: float, open_seconds: float, cycles: int, block: int,
               blocks_per_cycle: int) -> Trace:
    """A seeded trace: warm fill, then ``cycles`` cycles of open loop and backlog.

    The open-loop stretches hold ``rate * open_seconds`` Poisson arrivals in
    all, a fixed count, so every run times the same number of requests.
    Alternating the two kinds of load spreads both over the whole run.
    """
    ops_seq, times_seq = seed_seq.spawn(2)
    stream = RequestStream(np.random.default_rng(ops_seq), mix)
    warm_all = [stream.submit() for _ in range(residents)]
    warm = [warm_all[k:k + 16] for k in range(0, residents, 16)]
    n = round(rate * open_seconds)
    gaps = np.random.default_rng(times_seq).exponential(1.0 / rate, size=n)
    edges = np.linspace(0, n, cycles + 1).astype(int)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        requests = stream.take(hi - lo)
        blocks = [stream.take(block) for _ in range(blocks_per_cycle)]
        out.append(Cycle(np.cumsum(gaps[lo:hi]), requests, blocks))
    return Trace(warm, out)


@dataclass
class PhaseResult:
    """Per-request timings and outcomes of one kind of load, over all cycles."""

    latencies_s: list = field(default_factory=list)
    waits_s: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    wall_s: float = 0.0
    requests: int = 0
    rates: list = field(default_factory=list)  # requests/s of each backlogged call


def open_loop(send, due: np.ndarray, requests: list, out: PhaseResult, ratio=None,
              log=None, first_op: int = 0) -> None:
    """Send each request at its intended time; everything due goes in one call.

    Latency runs from the intended send time to the response, so a stall
    also counts against every request that queued behind it.  ``ratio()``
    (optional) reads the certified ratio after each call.  Results are
    appended to ``out``.
    """
    k, n = 0, len(requests)
    start = time.perf_counter()
    while k < n:
        now = time.perf_counter() - start
        if due[k] > now:
            time.sleep(due[k] - now)
            continue
        j = int(np.searchsorted(due, now, side="right"))
        if log is not None:
            log.op = first_op + k
        t_send = time.perf_counter()
        responses = send(*requests[k:j])
        t_done = time.perf_counter()
        for i in range(k, j):
            out.waits_s.append(t_send - start - due[i])
            out.latencies_s.append(t_done - start - due[i])
        out.responses.extend(responses)
        if ratio is not None:
            out.ratios.append(ratio())
        k = j
    out.wall_s += time.perf_counter() - start
    out.requests += n
    if log is not None:
        log.op = None


def backlogged(send, blocks: list, out: PhaseResult, ratio=None, log=None,
               first_op: int = 0) -> None:
    """Send fixed-size blocks back to back; results are appended to ``out``."""
    start = time.perf_counter()
    op = first_op
    for block in blocks:
        if log is not None:
            log.op = op
        out.responses.extend(send(*block))
        if ratio is not None:
            out.ratios.append(ratio())
        op += len(block)
    wall = time.perf_counter() - start
    out.wall_s += wall
    out.requests += op - first_op
    out.rates.append((op - first_op) / wall)
    if log is not None:
        log.op = None
