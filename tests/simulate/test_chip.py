"""End-to-end cache partitioning: profile → plan → round → measure."""

import numpy as np
import pytest

from repro.simulate.cache.chip import plan_partitioning, profile_traces
from repro.simulate.cache.trace import sequential_trace, working_set_trace, zipf_trace


def _mixed_traces(seed=0):
    rng = np.random.default_rng(seed)
    traces = [zipf_trace(40, 1500, s=rng.uniform(0.6, 1.5), seed=rng) for _ in range(5)]
    traces.append(sequential_trace(10, 1500))
    traces.append(working_set_trace([4, 8], 750, seed=rng))
    traces.append(zipf_trace(25, 1500, s=0.9, seed=rng))
    return traces


def test_profile_shapes():
    curves = profile_traces(_mixed_traces(), ways=12)
    assert curves.shape == (8, 13)
    assert np.all(curves[:, 0] == 0)
    assert np.all(np.diff(curves, axis=1) >= 0)


def test_profile_rejects_zero_ways():
    with pytest.raises(ValueError):
        profile_traces(_mixed_traces(), ways=0)


def test_plan_is_feasible():
    plan = plan_partitioning(_mixed_traces(), n_cores=2, ways=12, method="alg2")
    loads = np.bincount(plan.cores, weights=plan.ways, minlength=2)
    assert np.all(loads <= 12)
    assert np.all(plan.ways >= 0)
    assert np.all((plan.cores >= 0) & (plan.cores < 2))


def test_realized_hits_consistent_with_curves():
    traces = _mixed_traces()
    plan = plan_partitioning(traces, n_cores=2, ways=12, method="alg2")
    curves = profile_traces(traces, ways=12)
    expected = float(curves[np.arange(len(traces)), plan.ways].sum())
    assert plan.realized_hits == pytest.approx(expected)


def test_alg2_beats_random_heuristics_on_average():
    traces = _mixed_traces(seed=3)
    ours = plan_partitioning(traces, n_cores=2, ways=12, method="alg2")
    rr_hits = [
        plan_partitioning(traces, n_cores=2, ways=12, method="RR", seed=s).realized_hits
        for s in range(5)
    ]
    assert ours.realized_hits >= np.mean(rr_hits) - 1e-9


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown algorithm"):
        plan_partitioning(_mixed_traces(), 2, 12, method="ABC")


def test_unknown_objective_rejected():
    with pytest.raises(ValueError, match="objective"):
        plan_partitioning(_mixed_traces(), 2, 12, objective="latency")


def test_ipc_objective_plans_feasibly():
    traces = _mixed_traces(seed=6)
    plan = plan_partitioning(traces, 2, 12, objective="ipc")
    loads = np.bincount(plan.cores, weights=plan.ways, minlength=2)
    assert np.all(loads <= 12)
    # Realized value is total IPC: bounded by n * peak_ipc (default 1.0).
    assert 0 < plan.realized_hits <= len(traces)


def test_ipc_objective_differs_from_hits():
    """The two objectives weight threads differently: a hot thread with
    many accesses dominates hits, while IPC normalizes per instruction."""
    traces = _mixed_traces(seed=7)
    hits_plan = plan_partitioning(traces, 2, 12, objective="hits")
    ipc_plan = plan_partitioning(traces, 2, 12, objective="ipc")
    assert hits_plan.realized_hits != pytest.approx(ipc_plan.realized_hits)


def test_scan_thread_reports_envelope_gap():
    traces = [sequential_trace(8, 1000), zipf_trace(20, 1000, seed=0)]
    plan = plan_partitioning(traces, n_cores=1, ways=10, method="alg2")
    assert plan.max_envelope_gap > 0  # the scan curve is a step


def test_single_core_exact_mckp_rounding():
    """With one core the per-core MCKP is the whole problem: the integer
    plan must match a direct exact MCKP on the true curves."""
    from repro.allocation.mckp import MCKPItem, mckp_dp

    traces = _mixed_traces(seed=4)[:4]
    ways = 8
    plan = plan_partitioning(traces, n_cores=1, ways=ways, method="alg2")
    curves = profile_traces(traces, ways)
    classes = [
        [MCKPItem(w, float(curves[i, w])) for w in range(ways + 1)]
        for i in range(len(traces))
    ]
    best = mckp_dp(classes, ways).total_value
    assert plan.realized_hits == pytest.approx(best)
