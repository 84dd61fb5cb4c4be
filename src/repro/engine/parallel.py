"""Process-pool fan-out for embarrassingly parallel trial workloads.

The Section VII evaluation is "mean of 1000 random trials" per sweep
point, and trials are independent by construction (per-trial
``SeedSequence`` spawning) — the classic fan-out.  This module is the
one place the codebase touches :mod:`concurrent.futures`:

* :func:`map_trials` maps a picklable function over a task list, either
  in-process (``n_jobs=1``, the default — zero new machinery, bit-identical
  to a plain loop) or across a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Results always come back in task order, so callers that seed each task
  deterministically get results independent of worker count.
* :func:`resolve_jobs` / :func:`default_chunksize` centralize the worker-
  count and batching conventions (``n_jobs=-1`` = all cores; chunks sized
  so each worker sees ~4 waves of work for load balancing without
  per-trial serialization overhead).

Observability contract: workers cannot share the caller's
:class:`~repro.engine.SolveContext`, so parallel callers have each task
return counter/trace/metrics *snapshots* and fold them into the
caller's context via ``Counters.merge`` / ``Tracer.merge`` /
``MetricsRegistry.merge`` (see
:mod:`repro.observability`; histogram and counter merges are exact, so
merged telemetry is independent of the worker split).  The experiment
harness does exactly this.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means every available core;
    any other positive integer is taken literally up to the machine's
    core count.  Requests beyond ``os.cpu_count()`` are clamped with a
    :class:`RuntimeWarning` — oversubscribed process pools *lose* time to
    contention on this workload (BENCH_parallel.json measured 0.60× /
    0.40× at ``--jobs 2`` / ``4`` on a single-core host).  Zero and other
    negatives are rejected rather than guessed at.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    cores = max(os.cpu_count() or 1, 1)
    if n_jobs == -1:
        return cores
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be a positive integer or -1, got {n_jobs}")
    if n_jobs > cores:
        warnings.warn(
            f"n_jobs={n_jobs} exceeds the {cores} available core(s); clamping to "
            f"{cores} (oversubscribed pools slow this workload down)",
            RuntimeWarning,
            stacklevel=2,
        )
        return cores
    return n_jobs


def default_chunksize(n_tasks: int, n_jobs: int, waves: int = 4) -> int:
    """Tasks per worker batch: ``ceil(n_tasks / (waves * n_jobs))``, >= 1.

    ``waves`` batches per worker balances stragglers (a worker that drew
    slow instances finishes its chunk and steals the next) against the
    per-chunk serialization cost; 4 is a good default for trial workloads
    whose per-item cost varies by at most a few x.
    """
    if n_tasks < 0:
        raise ValueError(f"n_tasks must be nonnegative, got {n_tasks}")
    if n_jobs < 1 or waves < 1:
        raise ValueError(f"n_jobs and waves must be >= 1, got {n_jobs}, {waves}")
    return max(1, -(-n_tasks // (waves * n_jobs)))


def map_trials(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    n_jobs: int | None = 1,
    chunksize: int = 1,
) -> list[R]:
    """Map ``fn`` over ``tasks``, optionally across a process pool.

    Parameters
    ----------
    fn:
        A module-level (picklable) callable.
    tasks:
        The work items; consumed eagerly so the result order is defined.
        Each item must carry everything the computation needs — in
        particular its own seed material — so the output is a pure
        function of the task list, not of the execution schedule.
    n_jobs:
        Worker processes (see :func:`resolve_jobs`).  ``1`` (default)
        runs a plain in-process loop: no pool, no pickling, bit-identical
        to ``[fn(t) for t in tasks]``.
    chunksize:
        Tasks handed to a worker per dispatch (forwarded to
        ``ProcessPoolExecutor.map``).  Callers batching trials into
        chunk-tasks themselves should leave this at 1.

    Returns
    -------
    list
        ``fn``'s results **in task order**, regardless of worker count or
        completion order.
    """
    items: Sequence[T] = list(tasks)
    jobs = resolve_jobs(n_jobs)
    if jobs == 1 or len(items) <= 1:
        return [fn(t) for t in items]
    jobs = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, int(chunksize))))
