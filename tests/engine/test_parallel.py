"""The parallel sweep engine: pool fan-out, determinism, counter merging.

The load-bearing contract: for a fixed seed the harness's results are a
pure function of the task list — bit-identical for any worker count —
and worker-side observability folds losslessly into the caller's
context (the PR-1 "one linearization per trial" invariant survives the
pool).
"""

import pytest

from repro.engine import (
    SolveContext,
    default_chunksize,
    map_trials,
    resolve_jobs,
)
from repro.experiments.harness import (
    ALG2,
    run_point,
    run_point_arrays,
    run_sweep,
)
from repro.observability import LINEARIZE_CALLS
from repro.workloads.generators import UniformDistribution

DIST = UniformDistribution()


def _square(x):  # module-level: must be picklable for the pool
    return x * x


# -- unit: the pool primitives ----------------------------------------------


def test_resolve_jobs_conventions():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    cores = resolve_jobs(-1)
    assert cores >= 1
    if cores >= 3:
        assert resolve_jobs(3) == 3
    with pytest.raises(ValueError):
        resolve_jobs(0)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_resolve_jobs_clamps_oversubscription():
    # Requests beyond the machine's cores are clamped with a warning —
    # oversubscribed pools measurably *slow down* this workload
    # (BENCH_parallel.json: 0.60×/0.40× at --jobs 2/4 on one core).
    cores = resolve_jobs(-1)
    with pytest.warns(RuntimeWarning, match="exceeds"):
        assert resolve_jobs(cores + 1) == cores
    with pytest.warns(RuntimeWarning, match="clamping"):
        assert resolve_jobs(cores * 8) == cores


def test_default_chunksize_waves():
    assert default_chunksize(100, 4) == 7  # ceil(100 / 16)
    assert default_chunksize(3, 8) == 1
    assert default_chunksize(0, 2) == 1
    with pytest.raises(ValueError):
        default_chunksize(-1, 2)


def test_map_trials_serial_is_plain_loop():
    assert map_trials(_square, range(7), n_jobs=1) == [x * x for x in range(7)]


def test_map_trials_pool_preserves_task_order():
    tasks = list(range(13))
    assert map_trials(_square, tasks, n_jobs=3, chunksize=2) == [
        x * x for x in tasks
    ]


# -- acceptance: parallel vs serial determinism -----------------------------


def test_parallel_point_bit_identical_to_serial():
    kwargs = dict(trials=8, seed=7, include_alg1=True, include_raw=True)
    serial = run_point(DIST, 4, 3.0, 100.0, **kwargs)
    pooled = run_point(DIST, 4, 3.0, 100.0, n_jobs=4, **kwargs)
    assert pooled == serial  # == on floats: bit-identical, not approx


def test_parallel_point_independent_of_chunksize():
    base = run_point(DIST, 4, 3.0, 100.0, trials=6, seed=3)
    for chunksize in (1, 2, 5):
        assert (
            run_point(
                DIST, 4, 3.0, 100.0, trials=6, seed=3, n_jobs=2, chunksize=chunksize
            )
            == base
        )


def test_parallel_sweep_bit_identical_to_serial():
    factory = lambda beta: (DIST, float(beta))  # noqa: E731
    serial = run_sweep(factory, (1, 2), n_servers=4, capacity=100.0, trials=4, seed=0)
    pooled = run_sweep(
        factory, (1, 2), n_servers=4, capacity=100.0, trials=4, seed=0, n_jobs=2
    )
    assert [p.ratios for p in pooled] == [p.ratios for p in serial]
    assert [p.value for p in pooled] == [p.value for p in serial]


def test_merged_counters_equal_serial_counters():
    trials = 8
    serial_ctx, pooled_ctx = SolveContext(seed=0), SolveContext(seed=0)
    run_point(DIST, 4, 3.0, 100.0, trials=trials, seed=7, ctx=serial_ctx)
    run_point(DIST, 4, 3.0, 100.0, trials=trials, seed=7, n_jobs=4, ctx=pooled_ctx)
    # The PR-1 invariant survives the pool: one linearization per trial …
    assert pooled_ctx.counters[LINEARIZE_CALLS] == trials
    # … and every merged counter total matches the serial run exactly.
    assert pooled_ctx.counters.snapshot() == serial_ctx.counters.snapshot()


def test_run_point_arrays_shape_and_names():
    names, utilities = run_point_arrays(
        DIST, 4, 3.0, 100.0, trials=5, seed=1, n_jobs=2, chunksize=2
    )
    assert utilities.shape == (5, len(names))
    assert ALG2 in names
    serial_names, serial_utilities = run_point_arrays(
        DIST, 4, 3.0, 100.0, trials=5, seed=1
    )
    assert names == serial_names
    assert (utilities == serial_utilities).all()


# -- satellite: unseeded sweeps draw fresh entropy --------------------------


def test_run_sweep_seed_none_is_fresh_entropy():
    factory = lambda beta: (DIST, float(beta))  # noqa: E731
    a = run_sweep(factory, (2,), n_servers=4, capacity=100.0, trials=3, seed=None)
    b = run_sweep(factory, (2,), n_servers=4, capacity=100.0, trials=3, seed=None)
    assert a[0].ratios != b[0].ratios  # seed=None used to collapse to seed=0
