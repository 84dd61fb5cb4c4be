"""The abstract's headline claims, measured in one run.

* "achieves over 99% of the optimal utility on average" — worst mean
  Alg2/SO over the uniform/normal beta sweeps;
* "up to 5.7 times better total utility" — the heuristic multipliers at
  the power-law (alpha = 2) beta = 15 point.

Plus the engine's headline: running all contenders on a trial instance
through one SolveContext + LinearizationCache performs exactly one
linearization per instance, and the bench reports the per-trial speedup
over the uncached path together with the engine counters (linearize
calls saved, bisection iterations, heap ops).

Plus the observability subsystem's headline: full telemetry (tracer +
metrics registry + in-memory sink) costs a bounded multiple of the bare
solve, and telemetry left *unset* costs nothing measurable — the
disabled path is a single ``is None`` check.
"""

import os
import time

import numpy as np
from _common import QUICK, SEED, TRIALS, append_headline_record

from repro.engine import LinearizationCache, SolveContext
from repro.experiments.figures import run_figure
from repro.experiments.harness import SO, run_point_arrays, run_trial
from repro.experiments.report import summarize_headlines
from repro.observability import (
    ALG2_HEAP_OPS,
    BISECTION_ITERATIONS,
    LINEARIZE_CALLS,
    MemorySink,
    MetricsRegistry,
    Tracer,
)
from repro.utils.rng import spawn_generators
from repro.workloads.generators import UniformDistribution, make_problem


def test_headline_claims(benchmark):
    def run():
        return {
            "fig1a": run_figure("fig1a", trials=TRIALS, seed=SEED),
            "fig2a": run_figure("fig2a", trials=TRIALS, seed=SEED),
        }

    panels = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== headline claims ===")
    print(summarize_headlines(panels))

    so_floor = min(p.ratios[SO] for p in panels["fig1a"])
    assert so_floor >= 0.985, f"uniform Alg2/SO fell to {so_floor:.4f}"
    last = panels["fig2a"][-1]
    assert last.ratios["UU"] > 2.0, "power-law beta=15 UU multiplier too small"
    assert last.ratios["RR"] > 2.0, "power-law beta=15 RR multiplier too small"


def test_shared_linearization_speedup(benchmark):
    """Per-trial speedup of the engine's shared-linearization path.

    Uncached baseline: every contender linearizes the instance for
    itself (the pre-engine behavior, reconstructed by giving each
    ``run_trial`` contender its own context).  Cached path: one
    ``SolveContext`` per sweep, shared by alg1 + alg2 + all heuristics.
    """
    n_trials = max(TRIALS // 2, 10)
    instances = [
        make_problem(UniformDistribution(), n_servers=8, beta=10.0, seed=rng)
        for rng in spawn_generators(SEED, n_trials)
    ]

    def uncached():
        # One fresh context per solve → one linearization per *solve*, as
        # before the engine landed.  Returns the total linearize count.
        from repro.core.solve import solve

        calls = 0
        for p, rng in zip(instances, spawn_generators(SEED, n_trials)):
            for algorithm in ("alg1", "alg2", "UU", "UR", "RU", "RR"):
                c = SolveContext(seed=rng)
                solve(p, algorithm=algorithm, ctx=c)
                calls += c.counters[LINEARIZE_CALLS]
        return calls

    def cached():
        ctx = SolveContext(seed=SEED, cache=LinearizationCache())
        total = 0.0
        for p, rng in zip(instances, spawn_generators(SEED, n_trials)):
            record = run_trial(p, rng, include_alg1=True, ctx=ctx)
            total += sum(record.utilities.values())
        return ctx

    t0 = time.perf_counter()
    uncached_calls = uncached()
    uncached_s = time.perf_counter() - t0

    ctx = benchmark.pedantic(cached, rounds=1, iterations=1)

    cached_s = benchmark.stats.stats.mean
    speedup = uncached_s / cached_s if cached_s > 0 else float("inf")
    linearize_calls = ctx.counters[LINEARIZE_CALLS]
    saved = uncached_calls - linearize_calls
    print("\n=== shared linearization (engine) ===")
    print(f"trials                 : {n_trials}")
    print(f"uncached (per-solve)   : {uncached_s * 1e3:.1f} ms, {uncached_calls} linearize calls")
    print(f"cached  (shared ctx)   : {cached_s * 1e3:.1f} ms")
    print(f"per-trial speedup      : {speedup:.2f}x")
    print(f"linearize calls        : {linearize_calls} (saved {saved})")
    print(f"bisection iterations   : {ctx.counters[BISECTION_ITERATIONS]}")
    print(f"alg2 heap ops          : {ctx.counters[ALG2_HEAP_OPS]}")
    benchmark.extra_info["uncached_s"] = uncached_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["linearize_calls"] = linearize_calls
    benchmark.extra_info["linearize_calls_saved"] = saved
    benchmark.extra_info["bisection_iterations"] = int(
        ctx.counters[BISECTION_ITERATIONS]
    )

    # The whole point of the shared cache: one linearization per instance.
    assert linearize_calls == n_trials


def test_batch_backend_speedup(benchmark):
    """The array-first pipeline's headline: trials/sec, scalar vs batch.

    Headline sweep point: uniform workload, paper geometry ``m = 8``,
    ``beta = 8`` (n = 64 threads), ``C = 1000`` — the middle of the
    figures' beta range.  Both backends run the *same* seeded point;
    the utility matrices must agree bit for bit (the batch backend is a
    pure throughput decision), and the batch path must clear 10x the
    scalar trials/sec.  Results are appended to ``BENCH_headline.json``.

    Knobs: ``AART_BENCH_BACKEND_TRIALS`` (default 200; quick mode 60),
    ``AART_BENCH_QUICK`` (relaxes the 10x floor to 4x for noisy
    smoke-test containers).
    """
    point = {"dist": "uniform", "n_servers": 8, "beta": 8.0, "capacity": 1000.0}
    trials = int(
        os.environ.get("AART_BENCH_BACKEND_TRIALS", "60" if QUICK else "200")
    )
    dist = UniformDistribution()

    def run(backend):
        return run_point_arrays(
            dist,
            point["n_servers"],
            point["beta"],
            point["capacity"],
            trials=trials,
            seed=SEED,
            backend=backend,
        )

    def best_rate(backend, reps=3):
        """Best-of-N trials/sec (container timing is noisy); keeps arrays."""
        best, kept = 0.0, None
        for _ in range(reps):
            t0 = time.perf_counter()
            kept = run(backend)
            seconds = time.perf_counter() - t0
            best = max(best, trials / seconds)
        return best, kept

    run("batch")  # warm both code paths before timing
    scalar_rate, (names_s, utils_s) = best_rate("scalar")
    batch_rate, kept = benchmark.pedantic(
        best_rate, args=("batch",), rounds=1, iterations=1
    )
    names_b, utils_b = kept
    speedup = batch_rate / scalar_rate

    assert names_s == names_b
    assert np.array_equal(utils_s, utils_b), "batch backend changed results"

    record = {
        "point": point,
        "trials": trials,
        "seed": SEED,
        "quick": QUICK,
        "cpu_count": os.cpu_count() or 1,
        "scalar_trials_per_sec": scalar_rate,
        "batch_trials_per_sec": batch_rate,
        "speedup": speedup,
        "bit_identical": True,
    }
    path = append_headline_record("backend_headline", record)

    print("\n=== array-first backend: trials/sec ===")
    print(f"point: uniform, m=8, beta=8, C=1000, {trials} trials")
    print(f"scalar backend         : {scalar_rate:8.1f} trials/s")
    print(f"batch backend          : {batch_rate:8.1f} trials/s")
    print(f"speedup                : {speedup:.2f}x")
    print(f"results appended to {path}")
    benchmark.extra_info.update(
        {
            "scalar_trials_per_sec": scalar_rate,
            "batch_trials_per_sec": batch_rate,
            "batch_speedup": speedup,
        }
    )

    floor = 4.0 if QUICK else 10.0
    assert speedup >= floor, (
        f"batch backend {speedup:.2f}x scalar at the headline point; "
        f"expected >= {floor:.0f}x"
    )


def test_observability_overhead(benchmark):
    """What does full telemetry cost per solve — and disabled telemetry?

    Three configurations over the same instances:

    * ``bare``      — a plain ``SolveContext`` (counters only; its spans
      are the shared no-op);
    * ``full``      — tracer + metrics registry + bounded memory sink;
    * the benchmark times ``bare`` so pytest-benchmark archives the
      baseline; ``full`` overhead is reported relative to it.

    The disabled path must stay in the same ballpark as bare (its only
    cost is ``None`` checks); full telemetry is allowed a modest
    multiple — it records every span into three surfaces.
    """
    n_trials = max(TRIALS // 2, 10)
    instances = [
        make_problem(UniformDistribution(), n_servers=8, beta=10.0, seed=rng)
        for rng in spawn_generators(SEED, n_trials)
    ]

    def sweep(make_ctx):
        ctx = make_ctx()
        for p, rng in zip(instances, spawn_generators(SEED, n_trials)):
            run_trial(p, rng, ctx=ctx)
        return ctx

    def bare_ctx():
        return SolveContext(seed=SEED, cache=LinearizationCache())

    def full_ctx():
        return SolveContext(
            seed=SEED,
            cache=LinearizationCache(),
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            sink=MemorySink(maxlen=4096),
        )

    sweep(bare_ctx)  # warm the interpreter before timing either path
    benchmark.pedantic(sweep, args=(bare_ctx,), rounds=1, iterations=1)
    bare_s = benchmark.stats.stats.mean

    t0 = time.perf_counter()
    ctx = sweep(full_ctx)
    full_s = time.perf_counter() - t0

    overhead = full_s / bare_s if bare_s > 0 else float("inf")
    spans = len(ctx.tracer)
    print("\n=== observability overhead ===")
    print(f"trials                 : {n_trials}")
    print(f"bare context           : {bare_s * 1e3:.1f} ms")
    print(f"full telemetry         : {full_s * 1e3:.1f} ms ({overhead:.2f}x)")
    print(f"spans recorded         : {spans}")
    print(f"metric instruments     : {len(ctx.metrics)}")
    print(f"sink events kept       : {len(ctx.sink.events)} (dropped {ctx.sink.dropped})")
    benchmark.extra_info["full_s"] = full_s
    benchmark.extra_info["overhead_x"] = overhead
    benchmark.extra_info["spans"] = spans

    assert spans > 0 and len(ctx.metrics) > 0
    # Telemetry is bookkeeping around solver work, not a second solver:
    # generous ceiling so CI noise never flakes, still catches a hot-path
    # regression (e.g. snapshotting inside the solve loop).
    assert overhead < 10.0, f"full telemetry costs {overhead:.1f}x the bare solve"
