"""Multi-trial experiment harness for the paper's Section VII evaluation.

One *trial* draws a random AA instance from a workload distribution, runs
Algorithm 2 (and optionally Algorithm 1) plus the four heuristics on the
*same* instance, and records everyone's total utility together with the
super-optimal bound.  A *sweep point* averages per-trial ratios over many
independently seeded trials — the same estimator the paper plots (mean of
1000 random trials).

All contenders resolve through the :mod:`repro.engine` registry and share
one linearization per instance (the expensive Lemma V.2 precomputation),
obtained through the sweep's :class:`~repro.engine.SolveContext` — pass a
context with a cache and counters to verify exactly one linearization per
trial and to collect bisection/heap statistics for the whole sweep.
Timings come only from telemetry attached to that context (a tracer or a
metrics registry), which routes the sweep through the per-trial loop; the
trial-batched pipeline records counters alone.

Ratios follow the paper's figures: ``alg2 / SO`` (at most 1; "how close to
optimal") and ``alg2 / heuristic`` (at least ~1; "how much better than the
simple scheme").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import BatchProblem, linearize_batch, reclaim_batch
from repro.core.postprocess import reclaim
from repro.core.problem import AAProblem
from repro.engine import (
    LinearizationCache,
    SolveContext,
    default_chunksize,
    get_solver,
    list_solvers,
    map_trials,
    resolve_jobs,
)
from repro.observability import (
    BATCH_FALLBACKS,
    BATCH_TRIALS,
    LINEARIZE_CACHE_MISSES,
    TRIAL_THREADS,
    TRIAL_UTILITY,
    MetricsRegistry,
    Tracer,
)
from repro.utility.batch import concat_batches
from repro.workloads.generators import Distribution, make_problem, paper_utilities_batch
from repro.utils.rng import LaneSeeds, SeedLike, TrialStreams

#: Valid ``backend`` arguments of :func:`run_point_arrays`.
BACKENDS = ("auto", "batch", "scalar")

#: Series name of the super-optimal bound in trial records.
SO = "SO"
#: Series names of the paper's algorithms in trial records.  ALG2/ALG1 are
#: the paper algorithms followed by the utility-preserving reclamation pass
#: (see :mod:`repro.core.postprocess`); ALG2RAW is the verbatim Algorithm 2.
ALG2 = "ALG2"
ALG1 = "ALG1"
ALG2RAW = "ALG2RAW"


@dataclass(frozen=True)
class TrialRecord:
    """Total utilities of every contender on one random instance."""

    utilities: dict[str, float]
    n_threads: int

    def ratio(self, name: str, reference: str = ALG2) -> float:
        """``utilities[reference] / utilities[name]`` with 0/0 → 1."""
        num = self.utilities[reference]
        den = self.utilities[name]
        if den == 0.0:
            return 1.0 if num == 0.0 else np.inf
        return num / den


def run_trial(
    problem: AAProblem,
    rng: np.random.Generator,
    include_alg1: bool = False,
    include_raw: bool = False,
    heuristics=None,
    ctx: SolveContext | None = None,
) -> TrialRecord:
    """Evaluate all contenders on one instance (shared linearization).

    ``heuristics`` may be a mapping ``name -> callable(problem, seed=...)``
    to override the registry's heuristic set (tests use this); by default
    every registry solver of kind ``"heuristic"`` runs, in registration
    (= paper legend) order.
    """
    if ctx is None:
        ctx = SolveContext()
    lin = ctx.linearization(problem)
    utilities: dict[str, float] = {SO: lin.super_optimal_utility}
    raw2 = get_solver("alg2").run(problem, lin=lin, ctx=ctx)
    utilities[ALG2] = reclaim(problem, raw2, ctx=ctx, start=lin.price).total_utility(problem)
    if include_raw:
        utilities[ALG2RAW] = raw2.total_utility(problem)
    if include_alg1:
        raw1 = get_solver("alg1").run(problem, lin=lin, ctx=ctx)
        utilities[ALG1] = reclaim(problem, raw1, ctx=ctx, start=lin.price).total_utility(
            problem
        )
    if heuristics is None:
        for spec in list_solvers(kind="heuristic"):
            utilities[spec.name] = spec.run(problem, ctx=ctx, seed=rng).total_utility(
                problem
            )
    else:
        for name, heuristic in heuristics.items():
            utilities[name] = heuristic(problem, seed=rng).total_utility(problem)
    # Deterministic per-trial observations: instance size and ALG2's total
    # utility are pure functions of the seed, so these histograms merge
    # bit-identically from any worker split (a tier-1 test asserts it).
    ctx.observe(TRIAL_THREADS, float(problem.n_threads),
                help="Threads per trial instance.")
    ctx.observe(TRIAL_UTILITY, utilities[ALG2],
                help="ALG2 total utility per trial.")
    return TrialRecord(utilities=utilities, n_threads=problem.n_threads)


@dataclass(frozen=True)
class SweepPoint:
    """Mean per-trial ratios of Algorithm 2 against every contender."""

    value: float
    ratios: dict[str, float]
    trials: int


@dataclass(frozen=True)
class _TrialChunkTask:
    """A picklable batch of whole trials (instance + every contender each).

    ``seeds`` describes the trials' lanes: children ``first … first +
    count − 1`` of the point's root ``SeedSequence``, claimed by the caller
    (:class:`~repro.utils.rng.LaneSeeds`).  The chunk rebuilds exactly the
    generators a serial run would have used, as one
    :class:`~repro.utils.rng.TrialStreams`, so results are independent of
    how trials are split across processes.
    """

    dist: Distribution
    n_servers: int
    beta: float
    capacity: float
    seeds: LaneSeeds
    include_alg1: bool
    include_raw: bool
    interpolator: str
    with_cache: bool
    budget_s: float | None
    with_tracer: bool = False
    with_metrics: bool = False
    backend: str = "auto"


@dataclass(frozen=True)
class _TrialChunkResult:
    """Compact outcome of one chunk: a utility matrix plus observability.

    ``utilities[t, s]`` is contender ``names[s]``'s total utility on the
    chunk's ``t``-th trial — arrays, not per-trial dicts, to keep the
    inter-process payload small.  ``counters``/``trace``/``metrics`` are
    the worker context's snapshots, merged into the caller's context on
    receipt.
    """

    names: tuple
    utilities: np.ndarray
    counters: dict
    trace: dict | None = None
    metrics: dict | None = None


def _batch_precheck_reason(ctx: SolveContext, include_alg1: bool) -> str | None:
    """Batch-backend blockers knowable *before* generating any instance.

    The batch pipeline records *per-trial-equivalent* counters, but it
    cannot replay per-trial telemetry streams — so an attached tracer,
    metrics registry or event sink forces the scalar path; so do contenders without a registered ``batch_fn`` (ALG1).
    The remaining blocker — a utility family without an array evaluation
    contract — needs a generated instance: :func:`_run_trial_chunk` tests
    its probe instance's
    :attr:`~repro.utility.batch.UtilityBatch.supports_vectorized`.
    """
    if ctx.tracer is not None or ctx.metrics is not None or ctx.sink is not None:
        return "per-trial telemetry attached (tracer/metrics/sink)"
    if include_alg1:
        return "ALG1 has no batched implementation"
    if not get_solver("alg2").supports_batch:
        return "alg2 has no batch_fn attached"
    missing = [s.name for s in list_solvers(kind="heuristic") if not s.supports_batch]
    if missing:
        return f"heuristics without batch_fn: {', '.join(missing)}"
    return None


def _run_batch_chunk(
    task: _TrialChunkTask,
    ctx: SolveContext,
    bp: BatchProblem,
    streams: TrialStreams,
) -> _TrialChunkResult:
    """Solve a whole chunk through the array-first pipeline.

    Produces the same utility matrix — bit for bit — as the scalar
    per-trial loop, and counters equal to the sum the scalar path would
    have emitted.  It records no spans: it only runs when no telemetry
    surface is attached.
    """
    trials = bp.n_trials
    if ctx.cache is not None:
        # Parity with the scalar path's per-trial cache probe: every trial
        # of a fresh instance is a miss (the batch never revisits one).
        ctx.count(LINEARIZE_CACHE_MISSES, trials)
    blin = linearize_batch(bp, ctx=ctx)
    columns: dict[str, np.ndarray] = {SO: blin.super_optimal_utility}
    alg2_batch = get_solver("alg2").batch_fn
    assert alg2_batch is not None  # vetted by _batch_precheck_reason
    raw2 = alg2_batch(bp, blin, ctx, streams)
    reclaimed = reclaim_batch(bp, raw2, ctx=ctx, start=blin.price)
    columns[ALG2] = reclaimed.total_utilities(bp)
    if task.include_raw:
        columns[ALG2RAW] = raw2.total_utilities(bp)
    for spec in list_solvers(kind="heuristic"):
        assert spec.batch_fn is not None  # vetted by _batch_precheck_reason
        result = spec.batch_fn(bp, blin if spec.uses_linearization else None, ctx, streams)
        columns[spec.name] = result.total_utilities(bp)
    names = (SO, ALG2) + ((ALG2RAW,) if task.include_raw else ())
    names = names + tuple(s.name for s in list_solvers(kind="heuristic"))
    ctx.count(BATCH_TRIALS, trials)
    return _TrialChunkResult(
        names=names,
        utilities=np.column_stack([columns[name] for name in names]),
        counters=ctx.counters.snapshot(),
    )


def _run_trial_chunk(
    task: _TrialChunkTask, ctx: SolveContext | None = None
) -> _TrialChunkResult:
    """Run a chunk of trials (worker side, or in-process when ``ctx`` given).

    When ``ctx`` is omitted (the process-pool path) a fresh worker context
    is built, with its own :class:`~repro.engine.LinearizationCache` when
    the caller's context had one, so merged counter totals match a serial
    run of the same trials.

    ``task.backend`` picks the execution path: ``"scalar"`` is the
    historical per-trial loop, ``"batch"`` demands the array-first
    pipeline (raising when unsupported), and ``"auto"`` uses the batch
    path whenever the chunk qualifies (:func:`_batch_precheck_reason`, then
    the probe instance's ``supports_vectorized``) — results are
    bit-identical either way, so ``"auto"`` is purely a throughput decision.
    """
    if ctx is None:
        ctx = SolveContext(
            budget_s=task.budget_s,
            cache=LinearizationCache() if task.with_cache else None,
            tracer=Tracer() if task.with_tracer else None,
            metrics=MetricsRegistry() if task.with_metrics else None,
        )
    streams = TrialStreams.from_seeds(task.seeds)
    probe: AAProblem | None = None
    if task.backend != "scalar":
        reason = _batch_precheck_reason(ctx, task.include_alg1)
        if reason is None:
            # One probe instance decides the family check; lane 0 draws
            # exactly what a scalar trial 0 would, so both routes (and the
            # fallback below) continue from the same stream.
            probe = make_problem(
                task.dist,
                task.n_servers,
                task.beta,
                task.capacity,
                seed=streams.generator(0),
                interpolator=task.interpolator,
            )
            if not probe.utilities.supports_vectorized:
                family = type(probe.utilities).__name__
                reason = f"{family} has no vectorized evaluation"
        if reason is None:
            assert probe is not None
            # Remaining trials skip per-trial AAProblem construction: their
            # lanes draw the anchors make_problem would, in one pass, into
            # ONE stacked utility family.
            utilities = probe.utilities
            if len(streams) > 1:
                tail = paper_utilities_batch(
                    task.dist,
                    probe.n_threads,
                    task.capacity,
                    streams[1:],
                    interpolator=task.interpolator,
                )
                utilities = concat_batches([utilities, tail])
            bp = BatchProblem(
                utilities,
                n_trials=len(streams),
                n_servers=task.n_servers,
                capacity=task.capacity,
            )
            return _run_batch_chunk(task, ctx, bp, streams)
        if task.backend == "batch":
            raise ValueError(f"batch backend requested but unsupported: {reason}")
        ctx.count(BATCH_FALLBACKS, len(streams))
    # Scalar path: when a probe was generated (family fallback), trial 0
    # reuses it — its lane already consumed the instance draws, so every
    # trial's stream is identical to a scalar-only run.
    names: tuple | None = None
    rows = []
    for k in range(len(streams)):
        rng = streams.generator(k)
        if k == 0 and probe is not None:
            problem = probe
        else:
            problem = make_problem(
                task.dist,
                task.n_servers,
                task.beta,
                task.capacity,
                seed=rng,
                interpolator=task.interpolator,
            )
        record = run_trial(
            problem,
            rng,
            include_alg1=task.include_alg1,
            include_raw=task.include_raw,
            ctx=ctx,
        )
        if names is None:
            names = tuple(record.utilities)
        rows.append([record.utilities[name] for name in names])
    return _TrialChunkResult(
        names=names or (),
        utilities=np.asarray(rows, dtype=float),
        counters=ctx.counters.snapshot(),
        trace=ctx.tracer.snapshot() if ctx.tracer is not None else None,
        metrics=ctx.metrics.snapshot() if ctx.metrics is not None else None,
    )


def run_point_arrays(
    dist: Distribution,
    n_servers: int,
    beta: float,
    capacity: float,
    trials: int,
    seed: SeedLike = None,
    include_alg1: bool = False,
    include_raw: bool = False,
    interpolator: str = "quadspline",
    ctx: SolveContext | None = None,
    n_jobs: int | None = 1,
    chunksize: int | None = None,
    backend: str = "auto",
) -> tuple[tuple, np.ndarray]:
    """Per-trial utility matrix at one parameter setting.

    Returns ``(names, utilities)`` with ``utilities`` of shape
    ``(trials, len(names))`` in trial order — the compact form both
    :func:`run_point` (mean ratios) and the statistics module (dispersion)
    reduce from.

    ``n_jobs`` fans the trials out over a process pool in chunks of
    ``chunksize`` whole trials (default: ~4 chunks per worker).  Per-trial
    seeds are claimed from ``seed`` before dispatch (each chunk carries a
    :class:`~repro.utils.rng.LaneSeeds` and rebuilds its lanes from it), so
    any worker count — including 1 — produces bit-identical utilities.  With ``n_jobs > 1``
    each worker runs its own :class:`~repro.engine.SolveContext` mirroring
    the caller's (tracer and metrics registry included, when present) and
    its counter/trace/metrics snapshots are merged into ``ctx`` —
    histogram merges are *exact*, worker span trees graft under the
    caller's open span (sinks, which are not picklable, stay serial-only);
    with ``n_jobs=1`` the caller's ``ctx`` is used directly, exactly as
    before.

    ``backend`` selects the execution path per chunk: ``"auto"`` (default)
    routes through the array-first batch pipeline whenever every contender
    supports it and no per-trial telemetry is attached, falling back to
    the scalar loop otherwise; ``"scalar"`` forces the historical
    per-trial loop; ``"batch"`` demands the batch pipeline and raises with
    the blocking reason when the point does not qualify.  Utilities are
    bit-identical across backends (the scalar path is the oracle the batch
    kernels are property-tested against), so ``backend`` never changes
    results — only throughput and the ``batch_trials``/``batch_fallbacks``
    counters.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {', '.join(map(repr, BACKENDS))}, got {backend!r}"
        )
    jobs = resolve_jobs(n_jobs)
    seeds = LaneSeeds.claim(seed, trials)

    def make_task(chunk_seeds, with_cache, budget_s):
        return _TrialChunkTask(
            dist=dist,
            n_servers=n_servers,
            beta=beta,
            capacity=capacity,
            seeds=chunk_seeds,
            include_alg1=include_alg1,
            include_raw=include_raw,
            interpolator=interpolator,
            with_cache=with_cache,
            budget_s=budget_s,
            with_tracer=ctx is not None and ctx.tracer is not None,
            with_metrics=ctx is not None and ctx.metrics is not None,
            backend=backend,
        )

    if jobs == 1:
        results = [_run_trial_chunk(make_task(seeds, False, None), ctx=ctx)]
    else:
        size = (
            default_chunksize(trials, jobs)
            if chunksize is None
            else max(1, int(chunksize))
        )
        with_cache = ctx is not None and ctx.cache is not None
        budget = ctx.remaining() if ctx is not None else None
        if budget is not None:
            budget = max(budget, 1e-9)  # expired: workers raise SolveTimeout
        tasks = [make_task(chunk, with_cache, budget) for chunk in seeds.split(size)]
        results = map_trials(_run_trial_chunk, tasks, n_jobs=jobs)
        if ctx is not None:
            for res in results:
                ctx.counters.merge(res.counters)
                if ctx.tracer is not None and res.trace is not None:
                    ctx.tracer.merge(res.trace)
                if ctx.metrics is not None and res.metrics is not None:
                    ctx.metrics.merge(res.metrics)
    names = results[0].names
    if any(res.names != names for res in results):
        raise RuntimeError("contender sets diverged across trial chunks")
    utilities = (
        results[0].utilities
        if len(results) == 1
        else np.concatenate([res.utilities for res in results], axis=0)
    )
    return names, utilities


def trial_ratio(num: float, den: float) -> float:
    """The harness's ratio convention: ``num / den`` with 0/0 → 1."""
    if den == 0.0:
        return 1.0 if num == 0.0 else np.inf
    return num / den


def run_point(
    dist: Distribution,
    n_servers: int,
    beta: float,
    capacity: float,
    trials: int,
    seed: SeedLike = None,
    include_alg1: bool = False,
    include_raw: bool = False,
    interpolator: str = "quadspline",
    ctx: SolveContext | None = None,
    n_jobs: int | None = 1,
    chunksize: int | None = None,
) -> dict[str, float]:
    """Mean ratios (``alg2/SO``, ``alg2/UU``, …) at one parameter setting.

    When ``ctx`` is supplied its counters accumulate over the whole point —
    with a fresh context, ``ctx.counters["linearize_calls"] == trials``
    afterwards (one linearization per trial instance, shared by every
    contender; a test asserts this) whether the trials ran serially or
    across a pool (``n_jobs``; see :func:`run_point_arrays`).
    """
    names, utilities = run_point_arrays(
        dist,
        n_servers,
        beta,
        capacity,
        trials=trials,
        seed=seed,
        include_alg1=include_alg1,
        include_raw=include_raw,
        interpolator=interpolator,
        ctx=ctx,
        n_jobs=n_jobs,
        chunksize=chunksize,
    )
    alg2_col = names.index(ALG2)
    sums: dict[str, float] = {}
    # Scalar accumulation in trial order: bit-identical to the historical
    # per-trial loop (np.sum's pairwise reduction would not be).
    for row in utilities:
        num = float(row[alg2_col])
        for col, name in enumerate(names):
            if name == ALG2:
                continue
            sums[name] = sums.get(name, 0.0) + trial_ratio(num, float(row[col]))
    return {name: total / trials for name, total in sums.items()}


def sweep_point_seeds(seed: SeedLike, n_points: int, *salt: int) -> list:
    """Per-point root seeds for an ``n_points``-long sweep.

    An integer ``seed`` keys each point by the entropy list
    ``[seed, *salt, k]`` (the historical scheme, stable across releases):
    its lanes are those of ``SeedSequence([seed, *salt, k])``, without a
    root object to advance.  ``seed=None`` draws fresh OS entropy **once**
    and spawns the points from it — previously ``None`` silently collapsed
    to 0, making "unseeded" sweeps identical runs.
    """
    if seed is None:
        return list(np.random.SeedSequence().spawn(n_points))
    return [[int(seed), *salt, k] for k in range(n_points)]


def run_sweep(
    dist_factory,
    sweep_values,
    n_servers: int = 8,
    capacity: float = 1000.0,
    beta: float | None = None,
    trials: int = 100,
    seed: SeedLike = 0,
    include_alg1: bool = False,
    include_raw: bool = False,
    interpolator: str = "quadspline",
    ctx: SolveContext | None = None,
    n_jobs: int | None = 1,
    chunksize: int | None = None,
) -> list[SweepPoint]:
    """Run a figure-style sweep.

    Parameters
    ----------
    dist_factory:
        Callable ``value -> (Distribution, beta)`` producing the workload
        and the β to use at each sweep value (figures sweep either β itself
        or a distribution parameter at fixed β).
    sweep_values:
        X-axis values of the figure.
    trials:
        Trials per point (the paper uses 1000; benches default lower).
    seed:
        Root seed; each point derives an independent child.  ``None``
        draws fresh OS entropy (every unseeded sweep differs).
    ctx:
        Optional shared :class:`~repro.engine.SolveContext`; counters and
        any attached telemetry accumulate across every point of the sweep.
    n_jobs / chunksize:
        Process-pool fan-out within each point (see
        :func:`run_point_arrays`); results are independent of the worker
        count.
    """
    values = list(sweep_values)
    point_seeds = sweep_point_seeds(seed, len(values))
    points: list[SweepPoint] = []
    for value, point_seed in zip(values, point_seeds):
        dist, point_beta = dist_factory(value)
        if beta is not None:
            point_beta = beta
        ratios = run_point(
            dist,
            n_servers=n_servers,
            beta=point_beta,
            capacity=capacity,
            trials=trials,
            seed=point_seed,
            include_alg1=include_alg1,
            include_raw=include_raw,
            interpolator=interpolator,
            ctx=ctx,
            n_jobs=n_jobs,
            chunksize=chunksize,
        )
        points.append(SweepPoint(value=float(value), ratios=ratios, trials=trials))
    return points
