"""Telemetry through the engine: root spans, no-op paths, parallel merges.

Pins the PR's acceptance criteria: one ``solve.<name>`` root span per
solve with the linearize/solver/reclaim children under it; telemetry left
unset costs a single ``None`` check; histograms and span skeletons merged
from parallel workers are bit-identical to a serial run.
"""

import inspect
import json

import pytest

from repro.core.solve import solve
from repro.engine import SolveContext
from repro.experiments.harness import run_point_arrays
from repro.observability import (
    SPAN_SECONDS,
    TRIAL_THREADS,
    TRIAL_UTILITY,
    MemorySink,
    MetricsRegistry,
    Tracer,
)
from repro.workloads.generators import UniformDistribution, make_problem


def _problem(seed=0, n_servers=3, beta=2.5):
    return make_problem(UniformDistribution(), n_servers, beta, seed=seed)


def _full_ctx(seed=0):
    return SolveContext(
        seed=seed, tracer=Tracer(), metrics=MetricsRegistry(), sink=MemorySink()
    )


# -- root span per solve -------------------------------------------------------


def test_solve_opens_one_root_span_with_children():
    ctx = _full_ctx()
    solve(_problem(), "alg2", ctx=ctx)
    roots = ctx.tracer.tree()
    assert [r["name"] for r in roots] == ["solve.alg2"]
    child_names = [c["name"] for c in roots[0]["children"]]
    assert len(child_names) >= 2
    assert "linearize" in child_names and "alg2" in child_names


def test_solve_and_spec_run_do_not_double_count_the_root():
    """solve() holds solve.<name>; the registry's nested attempt collapses."""
    ctx = _full_ctx()
    solve(_problem(), "alg2", ctx=ctx)
    skel = ctx.tracer.skeleton()
    assert skel["solve.alg2"]["count"] == 1
    assert ctx.metrics.histogram(SPAN_SECONDS, span="solve.alg2").count == 1


def test_solve_span_restores_state_across_solvers():
    ctx = _full_ctx()
    solve(_problem(), "alg2", ctx=ctx)
    solve(_problem(1), "UU", ctx=ctx)
    skel = ctx.tracer.skeleton()
    assert skel["solve.alg2"]["count"] == 1
    assert skel["solve.UU"]["count"] == 1


def test_span_feeds_all_attached_surfaces():
    ctx = _full_ctx()
    with ctx.span("work"):
        pass
    assert [s["name"] for s in ctx.tracer.snapshot()["spans"]] == ["work"]
    hist = ctx.metrics.histogram(SPAN_SECONDS, span="work")
    assert hist.count == 1
    assert [e["name"] for e in ctx.sink.of_type("span")] == ["work"]


# -- disabled path -------------------------------------------------------------


def test_observe_without_registry_is_a_single_none_check():
    """The disabled hot path must be ONE ``is None`` check — pinned to source."""
    src = inspect.getsource(SolveContext.observe)
    body = src.split('"""')[-1]  # statements after the docstring
    statements = [ln.strip() for ln in body.splitlines() if ln.strip()]
    assert statements[0] == "if self.metrics is None:"
    assert statements[1] == "return"


def test_span_without_telemetry_is_one_shared_noop(monkeypatch):
    """No tracer, registry or sink: ``span`` allocates and records nothing."""
    ctx = SolveContext()
    assert ctx.span("a") is ctx.span("b")
    fail = lambda *a, **k: pytest.fail("telemetry touched on the disabled path")  # noqa: E731
    monkeypatch.setattr(MetricsRegistry, "histogram", fail)
    monkeypatch.setattr(Tracer, "span", fail)
    with ctx.span("a"):
        with ctx.span("b"):
            pass


def test_observe_and_emit_trace_are_noops_without_telemetry(monkeypatch):
    ctx = SolveContext(seed=0)
    # If the disabled path touched the registry at all, this would raise.
    monkeypatch.setattr(
        MetricsRegistry,
        "histogram",
        lambda *a, **k: pytest.fail("registry touched on the disabled path"),
    )
    ctx.observe("anything", 1.0)
    ctx.emit_trace()
    assert ctx.metrics is None and ctx.tracer is None
    solve(_problem(), "alg2", ctx=ctx)  # spans still fine without telemetry


# -- parallel merge bit-identity ----------------------------------------------


def _sweep(n_jobs):
    ctx = _full_ctx(seed=7)
    run_point_arrays(
        UniformDistribution(),
        3,
        2.0,
        1000.0,
        8,
        seed=99,
        ctx=ctx,
        n_jobs=n_jobs,
        chunksize=2,
    )
    return ctx


def _deterministic_instruments(ctx):
    """Deterministic series only: duration histograms carry wall-clock sums."""
    return [
        inst
        for inst in ctx.metrics.snapshot()["instruments"]
        if inst["name"] in (TRIAL_THREADS, TRIAL_UTILITY)
    ]


@pytest.mark.parametrize("n_jobs", [2, 4])
def test_parallel_merge_bit_identical_to_serial(n_jobs):
    serial = _sweep(1)
    parallel = _sweep(n_jobs)
    a = json.dumps(_deterministic_instruments(serial), sort_keys=True)
    b = json.dumps(_deterministic_instruments(parallel), sort_keys=True)
    assert a == b  # bit-identical: exact sums, fixed buckets
    assert parallel.tracer.skeleton() == serial.tracer.skeleton()
    assert parallel.counters.snapshot() == serial.counters.snapshot()


def test_trial_metrics_recorded():
    ctx = _full_ctx()
    run_point_arrays(
        UniformDistribution(), 3, 2.0, 1000.0, 4, seed=5, ctx=ctx, n_jobs=1
    )
    assert ctx.metrics.histogram(TRIAL_THREADS).count == 4
    assert ctx.metrics.histogram(TRIAL_UTILITY).count == 4
    # span-duration histograms recorded too (wall-clock, count only checked)
    assert ctx.metrics.histogram(SPAN_SECONDS, span="linearize").count == 4
