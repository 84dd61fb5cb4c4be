"""The four benchmark workloads: inputs, the timed run, and output checks.

Every workload generates its inputs from the seed in :meth:`setup`, before
the first timed operation; the program sees only the generated inputs.
:meth:`run` measures for about ``seconds`` seconds and returns the raw
timings; :meth:`check` returns the correctness violations of that run;
:meth:`replay` times one fixed piece of work on a fresh copy of the
set-up state, so a traced and an untraced replay can be compared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import checks
import loadgen
from layers import percentile
from spans import OP, SpanLog

import repro
from repro.core.problem import ALPHA
from repro.experiments.figures import CAPACITY, FIGURES, N_SERVERS, expected_shape_violations
from repro.experiments.harness import ALG2, SO, SweepPoint, run_point_arrays, trial_ratio
from repro.service import (
    AllocationService,
    Client,
    ClusterState,
    FleetCoordinator,
    InProcessTransport,
    RemoveThread,
    SubmitThread,
    TcpServer,
)
from repro.workloads.generators import UniformDistribution, make_problem

#: Trials per sweep point in the paper's Section VII evaluation.
PAPER_TRIALS = 1000


@dataclass
class Outcome:
    """What one timed run produced, before reduction to metrics."""

    ops: int  # trials, instances or requests: the unit per-layer metrics use
    attempted: int
    failed: int
    ops_per_s: float
    latencies_s: list
    utility_ratio: float
    samples: dict
    extras: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)


def _through(log: SpanLog | None, fn, *names: str):
    """``fn`` wrapped in spans ``names`` (outermost first) when tracing."""
    if log is None:
        return fn
    for name in reversed(names):
        fn = log.wrap(name, fn)
    return fn


# -- sweep ------------------------------------------------------------------


class Sweep:
    """fig1a and fig2a: m=8, C=1000, beta=1..15, batch backend, one process."""

    name = "sweep"
    figures = ("fig1a", "fig2a")
    #: (figure, beta) points re-run on the scalar backend, first trials only.
    scalar_points = (("fig1a", 3), ("fig2a", 8), ("fig1a", 15))

    def __init__(self, seed: int, seconds: float, tiny: bool = False, **_):
        self.seed, self.seconds = seed, seconds
        self.trials = 30 if tiny else PAPER_TRIALS
        self.scalar_trials = 12
        # A fixed amount of work per run: one pass takes 10-15 s on a 2-core host.
        self.passes = max(1, int(seconds // 10))
        self.points = []

    def setup(self) -> None:
        for f, fid in enumerate(self.figures):
            for beta in FIGURES[fid].sweep:
                dist, _ = FIGURES[fid].factory(beta)
                self.points.append((fid, float(beta), dist, [self.seed, f, int(beta)]))
        # Load lazily imported solver modules before timing.
        run_point_arrays(self.points[0][2], N_SERVERS, 2.0, CAPACITY, 4,
                         seed=[self.seed], backend="batch")

    def _solve(self, point, backend="batch", trials=None):
        _fid, beta, dist, entropy = point
        return run_point_arrays(dist, N_SERVERS, beta, CAPACITY, trials or self.trials,
                                seed=entropy, backend=backend)

    def run(self, log: SpanLog | None = None) -> Outcome:
        """Whole passes over every point; a point's time is its median over the passes."""
        solve = _through(log, self._solve, OP, "experiments.run_point_arrays")
        results, repeats = [], []
        times = np.zeros((self.passes, len(self.points)))
        for p in range(self.passes):
            for k, point in enumerate(self.points):
                if log is not None:
                    log.op = (p * len(self.points) + k) * self.trials
                t0 = time.perf_counter()
                res = solve(point)
                times[p, k] = time.perf_counter() - t0
                (repeats if p else results).append(res)
        if log is not None:
            log.op = None
        trials = len(results) * self.trials
        so = np.concatenate([u[:, names.index(SO)] for names, u in results])
        alg2 = np.concatenate([u[:, names.index(ALG2)] for names, u in results])
        out = Outcome(
            ops=times.size * self.trials,
            attempted=times.size * self.trials,
            failed=0,
            ops_per_s=trials / float(np.median(times, axis=0).sum()),
            latencies_s=times.ravel().tolist(),
            utility_ratio=float(np.mean(alg2 / so)),
            samples={"trials": trials, "points": len(results), "passes": self.passes},
        )
        out.violations = self.check(results)
        for k, (_, u) in enumerate(repeats):
            label = f"pass {k // len(results) + 2} point {k % len(results)}"
            out.violations += checks.check_identical(results[k % len(results)][1], u, label)
        return out

    def check(self, results) -> list[str]:
        violations = []
        by_fig: dict[str, list] = {fid: [] for fid in self.figures}
        for (fid, beta, _, _), (names, u) in zip(self.points, results):
            label = f"{fid} beta={beta:g}"
            violations += checks.check_trial_bounds(names, u, ALPHA, label)
            col2 = names.index(ALG2)
            ratios = {}
            for col, name in enumerate(names):
                if name != ALG2:
                    total = sum(trial_ratio(float(row[col2]), float(row[col])) for row in u)
                    ratios[name] = total / len(u)
            by_fig[fid].append(SweepPoint(value=beta, ratios=ratios, trials=len(u)))
        # The shape thresholds are calibrated for the paper's 1,000 trials
        # per point; --tiny runs are too small for them.
        if self.trials >= PAPER_TRIALS:
            for fid, series in by_fig.items():
                violations += expected_shape_violations(fid, series)
        for fid, beta in self.scalar_points:
            k = next(i for i, p in enumerate(self.points) if p[0] == fid and p[1] == beta)
            names, u = self._solve(self.points[k], "scalar", self.scalar_trials)
            label = f"{fid} beta={beta:g} scalar vs batch"
            if tuple(names) != tuple(results[k][0]):
                violations.append(f"{label}: contenders {names} != {results[k][0]}")
            else:
                violations += checks.check_identical(results[k][1][: self.scalar_trials], u,
                                                     label)
        return violations

    def replay(self, log: SpanLog | None = None) -> float:
        solve = _through(log, self._solve, OP, "experiments.run_point_arrays")
        mid = [p for p in self.points if p[1] in (8.0, 15.0)]
        t0 = time.perf_counter()
        for k, point in enumerate(mid):
            if log is not None:
                log.op = k
            solve(point)
        if log is not None:
            log.op = None
        return time.perf_counter() - t0

    def layer_extras(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# -- bigsolve ---------------------------------------------------------------


class BigSolve:
    """Seeded single instances, n = 10^5 and beta = 8, by alg2 and price discovery."""

    name = "bigsolve"
    solvers = ("alg2", "price_discovery")
    beta = 8.0

    def __init__(self, seed: int, seconds: float, tiny: bool = False, **_):
        self.seed, self.seconds = seed, seconds
        self.n = 2_000 if tiny else 100_000
        self.instances = 2 if tiny else 3
        # A fixed amount of work per run: one round takes 3-5 s on a 2-core host.
        self.rounds = max(1, int(seconds // 4))

    def setup(self) -> None:
        small = make_problem(UniformDistribution(), 4, self.beta, CAPACITY, seed=[self.seed])
        for solver in self.solvers:
            repro.solve(small, solver)

    def _instance(self, k: int, log: SpanLog | None):
        generate = _through(log, make_problem, "workloads.generate")
        solve = _through(log, repro.solve, "core.solve")
        m = int(self.n / self.beta)
        problem = generate(UniformDistribution(), m, self.beta, CAPACITY,
                           seed=[self.seed, 5, k])
        return problem, [solve(problem, solver) for solver in self.solvers]

    def run(self, log: SpanLog | None = None) -> Outcome:
        instance = _through(log, self._instance, OP)
        latencies, first, utilities = [], [], []
        for _ in range(self.rounds):
            for k in range(self.instances):
                if log is not None:
                    log.op = len(latencies)
                t0 = time.perf_counter()
                problem, solutions = instance(k, log)
                latencies.append(time.perf_counter() - t0)
                utilities.append([s.total_utility for s in solutions])
                if len(first) < self.instances:
                    first.append((problem, solutions))
        if log is not None:
            log.op = None
        solved = len(latencies)
        # An instance's time is its median over the rounds.
        per_round = np.reshape(latencies, (self.rounds, self.instances))
        out = Outcome(
            ops=solved,
            attempted=solved * len(self.solvers),
            failed=0,
            ops_per_s=self.n * self.instances * len(self.solvers)
            / float(np.median(per_round, axis=0).sum()),
            latencies_s=latencies,
            utility_ratio=float(np.mean([sols[0].certified_ratio for _, sols in first])),
            samples={"instances": solved, "threads_per_instance": self.n},
        )
        out.violations = self.check(first, utilities)
        return out

    def check(self, first, utilities) -> list[str]:
        violations = []
        for k, (problem, (alg2, prices)) in enumerate(first):
            if not alg2.meets_guarantee:
                violations.append(
                    f"instance {k}: alg2 certified ratio {alg2.certified_ratio} below alpha"
                )
            for sol in (alg2, prices):
                a = sol.assignment
                violations += checks.check_loads(a.servers, a.allocations, problem.n_servers,
                                                 problem.capacity, f"instance {k} {sol.algorithm}")
            if prices.total_utility > prices.super_optimal_utility * (1 + checks.RTOL):
                violations.append(f"instance {k}: price discovery exceeds the bound")
        for r, row in enumerate(utilities):
            if row != utilities[r % self.instances]:
                violations.append(f"solve {r}: utilities differ from the first round")
        return violations

    def replay(self, log: SpanLog | None = None) -> float:
        instance = _through(log, self._instance, OP)
        if log is not None:
            log.op = 0
        t0 = time.perf_counter()
        instance(0, log)
        wall = time.perf_counter() - t0
        if log is not None:
            log.op = None
        return wall

    def layer_extras(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# -- churn and fleet_tcp ----------------------------------------------------


class _Service:
    """Cycles of an open-loop Poisson stretch, then backlogged fixed blocks.

    ``sat_rps`` is the median over cycles of each cycle's backlogged rate.
    """

    name = ""
    mix: dict = {}
    residents = 0
    #: Share of ``seconds`` the open-loop stretches are sized for.
    open_share = 5 / 6
    #: Backlogged blocks at the end of each cycle (about 1/4 of the run on a 2-core host).
    blocks_per_cycle = 8

    def __init__(self, seed: int, seconds: float, rate: float, block: int,
                 tiny: bool = False, **_):
        self.seed, self.seconds, self.rate, self.block = seed, seconds, rate, block
        if tiny:
            self.residents = self.residents // 4

    def setup(self) -> None:
        self.trace = loadgen.make_trace(
            np.random.SeedSequence([self.seed, 11]), self.mix, self.residents, self.rate,
            self.seconds * self.open_share, max(1, round(self.seconds / 4)), self.block,
            self.blocks_per_cycle,
        )
        self.start_services()
        for block in self.trace.warm:
            failed = checks.check_responses(self.send(*block), "warm fill")
            if failed:
                raise RuntimeError(failed[0])
        self.snapshot = [s.state.to_dict() for s in self.shards]

    def start_services(self, states=None) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def run(self, log: SpanLog | None = None) -> Outcome:
        send = _through(log, self.send, OP)
        migrations0 = self.migrations()
        coalesce0 = self.coalesce_sum()
        opened, backlog = loadgen.PhaseResult(), loadgen.PhaseResult()
        for cycle in self.trace.cycles:
            loadgen.open_loop(send, cycle.due, cycle.requests, opened, self.ratio, log,
                              first_op=opened.requests + backlog.requests)
            loadgen.backlogged(send, cycle.blocks, backlog, self.ratio, log,
                               first_op=opened.requests + backlog.requests)
        requests = opened.requests + backlog.requests
        responses = opened.responses + backlog.responses
        ratios = [r for r in opened.ratios + backlog.ratios if r is not None]
        out = Outcome(
            ops=requests,
            attempted=requests,
            failed=sum(1 for r in responses if not r.ok),
            ops_per_s=float(np.median(backlog.rates)),
            latencies_s=opened.latencies_s,
            utility_ratio=float(np.mean(ratios)) if ratios else 0.0,
            samples={
                "cycles": len(self.trace.cycles),
                "open_loop_requests": opened.requests,
                "open_loop_calls": len(opened.ratios),
                "open_loop_s": opened.wall_s,
                "generator_late_ms_p50": percentile(opened.waits_s, 50) * 1e3,
                "generator_late_ms_p99": percentile(opened.waits_s, 99) * 1e3,
                "backlog_requests": backlog.requests,
                "backlog_block": self.block,
                "backlog_s": backlog.wall_s,
                "offered_rate_per_s": self.rate,
            },
        )
        out.violations = checks.check_responses(responses, self.name)
        out.violations += self.check(self.trace.sent())
        out.extras = {
            "waits_s": opened.waits_s,
            "migrations": self.migrations() - migrations0,
            "coalesce_total_s": self.coalesce_sum() - coalesce0,
        }
        return out

    def check(self, sent) -> list[str]:
        violations = []
        for k, shard in enumerate(self.shards):
            state = shard.state
            if state.n_threads:
                a = state.assignment()
                try:
                    a.validate(state.scheduler.problem())
                except ValueError as exc:
                    violations.append(f"shard {k}: invalid assignment: {exc}")
                violations += checks.check_loads(a.servers, a.allocations, state.n_servers,
                                                 state.capacity, f"shard {k}")
        submits = sum(isinstance(r, SubmitThread) for r in sent)
        removes = sum(isinstance(r, RemoveThread) for r in sent)
        expected = self.residents + submits - removes
        violations += checks.check_count(
            expected, sum(s.state.n_threads for s in self.shards), self.name
        )
        return violations + self.check_certificate()

    def replay(self, log: SpanLog | None = None) -> float:
        """Closed-loop blocks of the trace's first requests on a copy of the set-up state."""
        requests = self.trace.cycles[0].requests[: self.block * 10]
        blocks = [requests[k:k + self.block] for k in range(0, len(requests), self.block)]
        copy = type(self)(self.seed, self.seconds, self.rate, self.block)
        copy.residents = self.residents
        copy.start_services([ClusterState.from_dict(s) for s in self.snapshot])
        try:
            send = _through(log, copy.send, OP)
            t0 = time.perf_counter()
            for k, block in enumerate(blocks):
                if log is not None:
                    log.op = k * self.block
                send(*block)
            wall = time.perf_counter() - t0
        finally:
            if log is not None:
                log.op = None
            copy.close()
        return wall

    def layer_extras(self) -> dict:
        hits = sum(s.cache.hits for s in self.shards)
        misses = sum(s.cache.misses for s in self.shards)
        return {"cache": (hits, misses)}

    def migrations(self) -> int:
        return 0

    def coalesce_sum(self) -> float:
        return 0.0


class Churn(_Service):
    """Submits and removes 50/50 into one in-process AllocationService (m=8)."""

    name = "churn"
    mix = loadgen.CHURN_MIX
    residents = 128

    def start_services(self, states=None) -> None:
        state = states[0] if states else ClusterState(8, loadgen.CAPACITY)
        self.service = AllocationService(state, seed=self.seed)
        self.shards = [self.service]
        self.send = InProcessTransport(self.service).request

    def ratio(self):
        return self.service.last_ratio

    def check_certificate(self) -> list[str]:
        return checks.check_ratio(self.service.last_ratio, ALPHA, "churn last step")

    def layer_extras(self) -> dict:
        return {**super().layer_extras(), "processor": "service.server.process"}


class FleetTcp(_Service):
    """One loopback client, TcpServer, 3-shard FleetCoordinator (3 x 4 servers)."""

    name = "fleet_tcp"
    mix = loadgen.FLEET_MIX
    residents = 192

    def start_services(self, states=None) -> None:
        states = states or [ClusterState(4, loadgen.CAPACITY) for _ in range(3)]
        self.shards = [AllocationService(s, seed=[self.seed, k]) for k, s in enumerate(states)]
        self.fleet = FleetCoordinator(self.shards)
        self.server = TcpServer(self.fleet, port=0).start()
        self.client = Client(port=self.server.port)
        self.send = self.client.request

    def close(self) -> None:
        self.client.close()
        self.server.stop()

    def ratio(self):
        cert = self.fleet.last_certificate
        return cert.ratio if cert is not None else None

    def check_certificate(self) -> list[str]:
        if not self.fleet.certificate().holds():
            return ["fleet_tcp: the composed certificate does not hold at alpha"]
        return []

    def migrations(self) -> int:
        return self.fleet.migrations

    def _coalesce(self):
        from repro.observability import REQUEST_PHASE_SECONDS

        return self.fleet.metrics.histogram(REQUEST_PHASE_SECONDS, op="batch",
                                            phase="coalesce_wait")

    def coalesce_sum(self) -> float:
        return self._coalesce().sum

    def layer_extras(self) -> dict:
        return {**super().layer_extras(), "processor": "service.fleet.process",
                "fleet": True, "coalesce_p50_s": self._coalesce().quantile(0.5)}


WORKLOADS = {cls.name: cls for cls in (Sweep, Churn, FleetTcp, BigSolve)}
