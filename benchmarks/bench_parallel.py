"""Parallel sweep engine: trials/sec scaling across worker counts.

Runs one uniform-workload sweep point (paper geometry, ``m = 8``,
``C = 1000``) at ``n_jobs ∈ {1, 2, 4}``, checks the series stay
bit-identical, and emits a machine-readable ``BENCH_parallel.json``
(trials/sec per worker count, speedups, merged engine counters) next to
this file.  The speedup assertion only arms on hardware that can
actually parallelize (≥ 4 cores; a 1-core container still validates
determinism and the counter-merge invariant, and still records its
numbers).

Knobs: ``AART_BENCH_PARALLEL_TRIALS`` (default 500 — the acceptance
point), ``AART_BENCH_SEED``.
"""

import json
import os
import time
from pathlib import Path

from _common import QUICK, SEED, append_headline_record

from repro.engine import SolveContext
from repro.experiments.harness import run_point_arrays
from repro.observability import LINEARIZE_CALLS
from repro.workloads.generators import UniformDistribution

TRIALS = int(
    os.environ.get("AART_BENCH_PARALLEL_TRIALS", "100" if QUICK else "500")
)
JOB_GRID = (1, 2, 4)
RESULT_PATH = Path(__file__).with_name("BENCH_parallel.json")


def test_parallel_trials_per_second(benchmark):
    dist = UniformDistribution()
    results = {}
    utils_by_jobs = {}
    counters_by_jobs = {}

    def run_at(jobs, backend="auto"):
        ctx = SolveContext(seed=0)
        t0 = time.perf_counter()
        _, utils = run_point_arrays(
            dist, 8, 5.0, 1000.0, trials=TRIALS, seed=SEED, ctx=ctx, n_jobs=jobs,
            backend=backend,
        )
        seconds = time.perf_counter() - t0
        if backend != "auto":
            return utils, TRIALS / seconds
        utils_by_jobs[jobs] = utils
        counters_by_jobs[jobs] = ctx.counters.snapshot()
        results[jobs] = {
            "seconds": seconds,
            "trials_per_sec": TRIALS / seconds,
        }
        return utils, TRIALS / seconds

    # pytest-benchmark times the whole grid; per-config numbers are ours.
    benchmark.pedantic(lambda: [run_at(j) for j in JOB_GRID], rounds=1, iterations=1)

    serial = results[1]["trials_per_sec"]
    for jobs in JOB_GRID:
        results[jobs]["speedup"] = results[jobs]["trials_per_sec"] / serial

    # Determinism: every worker count reproduces the serial utility matrix
    # exactly, and merged counters preserve the one-linearization-per-trial
    # invariant.
    serial_bytes = utils_by_jobs[1].tobytes()
    for jobs in JOB_GRID[1:]:
        assert utils_by_jobs[jobs].tobytes() == serial_bytes, f"n_jobs={jobs} diverged"
        assert counters_by_jobs[jobs] == counters_by_jobs[1]
    assert counters_by_jobs[1][LINEARIZE_CALLS] == TRIALS

    # Scalar-backend baseline at n_jobs=1: the batch backend (what "auto"
    # picks here) must reproduce its utility matrix exactly, only faster.
    scalar_utils, scalar_rate = run_at(1, backend="scalar")
    assert scalar_utils.tobytes() == serial_bytes, "backends diverged"
    batch_rate = results[1]["trials_per_sec"]
    backend_speedup = batch_rate / scalar_rate

    cores = os.cpu_count() or 1
    append_headline_record(
        "backend_parallel",
        {
            "point": {
                "dist": "uniform", "n_servers": 8, "beta": 5.0, "capacity": 1000.0,
            },
            "trials": TRIALS,
            "seed": SEED,
            "quick": QUICK,
            "cpu_count": cores,
            "scalar_trials_per_sec": scalar_rate,
            "batch_trials_per_sec": batch_rate,
            "speedup": backend_speedup,
            "trials_per_sec_by_jobs": {
                str(j): results[j]["trials_per_sec"] for j in JOB_GRID
            },
        },
    )

    doc = {
        "format": "aart-bench-parallel/1",
        "trials": TRIALS,
        "seed": SEED,
        "cpu_count": cores,
        "point": {"dist": "uniform", "n_servers": 8, "beta": 5.0, "capacity": 1000.0},
        "jobs": {str(j): results[j] for j in JOB_GRID},
        "merged_counters": counters_by_jobs[max(JOB_GRID)],
        "bit_identical_across_jobs": True,
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    print("\n=== parallel sweep engine: trials/sec ===")
    print(f"point: uniform, m=8, beta=5, C=1000, {TRIALS} trials (cpu_count={cores})")
    for jobs in JOB_GRID:
        r = results[jobs]
        print(
            f"  n_jobs={jobs}: {r['trials_per_sec']:8.1f} trials/s "
            f"({r['seconds']:.2f}s, speedup {r['speedup']:.2f}x)"
        )
    print(
        f"  scalar backend (n_jobs=1): {scalar_rate:8.1f} trials/s "
        f"(batch backend {backend_speedup:.2f}x)"
    )
    print(f"results written to {RESULT_PATH}")

    benchmark.extra_info.update(
        {f"trials_per_sec_jobs{j}": results[j]["trials_per_sec"] for j in JOB_GRID}
    )
    benchmark.extra_info["speedup_jobs4"] = results[4]["speedup"]

    if cores >= 4:
        assert results[4]["speedup"] >= 2.0, (
            f"expected >= 2x trials/sec at n_jobs=4 on {cores} cores, "
            f"got {results[4]['speedup']:.2f}x"
        )
