"""SolveContext: counters, spans, sinks, deadline, RNG."""

import time

import pytest

from repro.core.solve import solve
from repro.core.tightness import tightness_instance
from repro.engine import LinearizationCache, SolveContext, SolveTimeout
from repro.observability import (
    ALG1_ROUNDS,
    ALG2_HEAP_OPS,
    BISECTION_ITERATIONS,
    LINEARIZE_CALLS,
    MemorySink,
    RECLAIM_CALLS,
    WATERFILL_CALLS,
)
from repro.utility.functions import LogUtility


def test_alg2_heap_ops_exact_on_tightness_instance():
    """Theorem V.17 instance: n=3 threads, each placed with exactly one
    peek and one decrease-key on the server heap — 2n = 6 heap ops."""
    ctx = SolveContext()
    sol = solve(tightness_instance(), algorithm="alg2", ctx=ctx)
    assert sol.total_utility == pytest.approx(2.5)
    assert ctx.counters[ALG2_HEAP_OPS] == 6
    assert ctx.counters[LINEARIZE_CALLS] == 1
    assert ctx.counters[WATERFILL_CALLS] == 1
    assert ctx.counters[RECLAIM_CALLS] == 1
    # The demand of this piecewise-linear instance clears the water-fill's
    # budget exactly at the opening price, so the search takes no step.
    assert ctx.counters[BISECTION_ITERATIONS] == 0


def test_alg1_counts_rounds():
    ctx = SolveContext()
    solve(tightness_instance(), algorithm="alg1", ctx=ctx)
    assert ctx.counters[ALG1_ROUNDS] >= 1


def test_counters_default_zero_and_reject_negative():
    ctx = SolveContext()
    assert ctx.counters["never_touched"] == 0
    with pytest.raises(ValueError):
        ctx.count("x", -1)


def test_spans_accumulate_and_emit():
    sink = MemorySink()
    ctx = SolveContext(sink=sink)
    solve(tightness_instance(), ctx=ctx)
    snap = ctx.snapshot()
    assert "linearize" in snap["spans"]
    assert "alg2" in snap["spans"]
    assert "reclaim" in snap["spans"]
    emitted = {e["name"] for e in sink.of_type("span")}
    assert {"linearize", "alg2", "reclaim"} <= emitted
    for e in sink.of_type("span"):
        assert e["seconds"] >= 0.0


def test_emit_counters_snapshot_event():
    sink = MemorySink()
    ctx = SolveContext(sink=sink)
    solve(tightness_instance(), ctx=ctx)
    ctx.emit_counters(solver="alg2")
    (event,) = sink.of_type("counters")
    assert event["solver"] == "alg2"
    assert event["counters"][ALG2_HEAP_OPS] == 6


def test_deadline_raises_solve_timeout():
    big = [LogUtility(coeff=float(k % 7 + 1), scale=10.0, cap=100.0) for k in range(400)]
    from repro.core.problem import AAProblem

    p = AAProblem(big, n_servers=8, capacity=100.0)
    ctx = SolveContext(budget_s=1e-9)
    time.sleep(0.002)  # ensure the deadline has passed before the first check
    with pytest.raises(SolveTimeout):
        solve(p, ctx=ctx)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        SolveContext(budget_s=0.0)


def test_rng_is_seeded_and_deterministic():
    p_seed = 1234
    import numpy as np

    a = SolveContext(seed=p_seed).rng.uniform(size=3)
    b = SolveContext(seed=p_seed).rng.uniform(size=3)
    assert np.array_equal(a, b)


def test_solution_reuses_ctx_cached_linearization():
    p = tightness_instance()
    ctx = SolveContext(cache=LinearizationCache())
    s1 = solve(p, ctx=ctx)
    s2 = solve(p, algorithm="alg1", ctx=ctx)
    assert s1.linearization is s2.linearization
    assert ctx.counters[LINEARIZE_CALLS] == 1
