"""The oracle-equivalence contract of the array-first pipeline.

The scalar pipeline (``linearize`` → ``algorithm2`` → ``reclaim`` plus the
four heuristics) is the semantic ground truth; every batched kernel must be
**bit-identical** to its scalar counterpart run per trial — same floats,
same assignments, same tie-breaks, ``rtol=0``.  These tests enforce that
contract at both levels:

* kernel level — :func:`linearize_batch`, :func:`algorithm2_batch_kernel`,
  :func:`reclaim_batch` and :func:`water_fill_batch` against per-trial
  scalar runs, across all four Section VII workload generators
  (hypothesis-driven), with counter parity for the two water-fill entries;
* harness level — ``backend="batch"`` vs ``backend="scalar"`` utility
  matrices, counters and the α-certificate, serial and pooled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.waterfill import water_fill, water_fill_batch
from repro.core.algorithm2 import algorithm2
from repro.core.algorithm2_batch import algorithm2_batch_kernel, thread_order_batch
from repro.core.batch import BatchAssignment, BatchProblem, linearize_batch, reclaim_batch
from repro.core.linearize import linearize
from repro.core.postprocess import reclaim
from repro.core.problem import ALPHA
from repro.core.solve import solve
from repro.engine import SOLVER_KINDS, LinearizationCache, SolveContext, get_solver, list_solvers
from repro.experiments.harness import run_point_arrays
from repro.observability import (
    BATCH_EVALUATIONS,
    BISECTION_ITERATIONS,
    GROUPED_BISECTION_ITERATIONS,
    RECLAIM_CALLS,
    WATERFILL_CALLS,
)
from repro.utility.batch import GenericBatch, QuadSplineBatch, concat_batches
from repro.workloads.generators import make_distribution, make_problem

GENERATORS = ("uniform", "normal", "powerlaw", "discrete")

#: Counters the batch path adds on top of per-trial-equivalent accounting.
ROUTING_COUNTERS = ("batch_trials", "batch_fallbacks")


def _point_params(dist_name):
    return dict(dist=make_distribution(dist_name), n_servers=5, beta=2.6,
                capacity=1000.0, trials=8, seed=20260808)


def _without_routing(counters):
    return {k: v for k, v in counters.items() if k not in ROUTING_COUNTERS}


# ---------------------------------------------------------------------------
# Kernel level: hypothesis-driven bit-identity per trial.
# ---------------------------------------------------------------------------

instance_params = st.tuples(
    st.sampled_from(GENERATORS),
    st.integers(min_value=2, max_value=6),      # servers
    st.integers(min_value=2, max_value=14),     # threads per trial
    st.integers(min_value=2, max_value=5),      # trials
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _build_batch(dist_name, m, n, trials, seed):
    dist = make_distribution(dist_name)
    root = np.random.SeedSequence(seed)
    problems = [
        make_problem(dist, m, n / m, seed=np.random.default_rng(child))
        for child in root.spawn(trials)
    ]
    return problems, BatchProblem.from_problems(problems)


@settings(max_examples=20, deadline=None)
@given(instance_params)
def test_linearize_batch_bit_identical(params):
    problems, bp = _build_batch(*params)
    blin = linearize_batch(bp)
    for t, problem in enumerate(problems):
        lin = linearize(problem)
        assert np.array_equal(blin.c_hat[t], lin.c_hat)
        assert np.array_equal(blin.top[t], lin.top)
        assert np.array_equal(blin.slope[t], lin.slope)
        assert float(blin.super_optimal_utility[t]) == lin.super_optimal_utility
        assert lin.price == water_fill(problem.utilities, problem.pool).marginal_price
        assert blin.price[t].tobytes() == np.float64(lin.price).tobytes()


def _assert_reclaim_counters_match(ctx_batch, ctx_scalar):
    for name in (RECLAIM_CALLS, BATCH_EVALUATIONS, GROUPED_BISECTION_ITERATIONS):
        assert ctx_batch.counters.get(name, 0) == ctx_scalar.counters.get(name, 0), name


@settings(max_examples=20, deadline=None)
@given(instance_params)
def test_algorithm2_and_reclaim_batch_bit_identical(params):
    problems, bp = _build_batch(*params)
    blin = linearize_batch(bp)
    raw = algorithm2_batch_kernel(bp, blin)
    ctx_batch, ctx_scalar = SolveContext(), SolveContext()
    reclaimed = reclaim_batch(bp, raw, ctx=ctx_batch)
    for t, problem in enumerate(problems):
        scalar_raw = algorithm2(problem)
        assert np.array_equal(raw.servers[t], scalar_raw.servers)
        assert np.array_equal(raw.allocations[t], scalar_raw.allocations)
        scalar_rec = reclaim(problem, scalar_raw, ctx=ctx_scalar)
        assert np.array_equal(reclaimed.allocations[t], scalar_rec.allocations)
        # The paper's guarantee survives the batch path: the certificate
        # holds trial by trial against the batched F̂.
        total = float(
            np.sum(problem.utilities.value(reclaimed.allocations[t]))
        )
        assert total >= ALPHA * float(blin.super_optimal_utility[t]) - 1e-9
    _assert_reclaim_counters_match(ctx_batch, ctx_scalar)


@settings(max_examples=20, deadline=None)
@given(instance_params)
def test_warm_reclaim_batch_bit_identical_to_solve(params):
    # The sweep's batch reclaim starts each trial's servers at λ*, as
    # solve()'s scalar reclaim does: same bits, same pass counts.
    problems, bp = _build_batch(*params)
    blin = linearize_batch(bp)
    raw = algorithm2_batch_kernel(bp, blin)
    ctx_batch, ctx_scalar = SolveContext(), SolveContext()
    reclaimed = reclaim_batch(bp, raw, ctx=ctx_batch, start=blin.price)
    for t, problem in enumerate(problems):
        solved = solve(problem, "alg2")
        assert np.array_equal(reclaimed.allocations[t], solved.assignment.allocations)
        lin = solved.linearization
        scalar_rec = reclaim(problem, raw.assignment(t), ctx=ctx_scalar, start=lin.price)
        assert np.array_equal(reclaimed.allocations[t], scalar_rec.allocations)
    _assert_reclaim_counters_match(ctx_batch, ctx_scalar)


def test_reclaim_batch_counters_match_scalar_without_threads():
    """Zero threads: no fill runs, so no demand evaluations are counted."""
    empty = QuadSplineBatch(np.zeros(0), np.zeros(0), np.zeros(0))
    bp = BatchProblem(empty, n_trials=3, n_servers=2, capacity=10.0)
    raw = BatchAssignment(np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0)))
    ctx_batch, ctx_scalar = SolveContext(), SolveContext()
    reclaimed = reclaim_batch(bp, raw, ctx=ctx_batch)
    for t in range(bp.n_trials):
        scalar_rec = reclaim(bp.problem(t), raw.assignment(t), ctx=ctx_scalar)
        assert np.array_equal(reclaimed.allocations[t], scalar_rec.allocations)
    _assert_reclaim_counters_match(ctx_batch, ctx_scalar)
    assert ctx_batch.counters.get(BATCH_EVALUATIONS, 0) == 0


#: Per-trial budget kinds: the trial's ``m * C`` pool, an empty budget, an
#: interior fraction of the cap total, exactly the cap total, or more.
budget_kinds = st.lists(
    st.sampled_from(("pool", "zero", "interior", "cap_total", "slack")),
    min_size=5, max_size=5,
)


@settings(max_examples=20, deadline=None)
@given(instance_params, budget_kinds, st.floats(min_value=0.01, max_value=0.99))
def test_water_fill_batch_matches_scalar(params, kinds, fraction):
    problems, bp = _build_batch(*params)
    cap_totals = [float(np.sum(p.utilities.caps)) for p in problems]
    budgets = np.array([
        {
            "pool": float(bp.pools[t]),
            "zero": 0.0,
            "interior": fraction * cap_totals[t],
            "cap_total": cap_totals[t],
            "slack": (1.0 + fraction) * cap_totals[t],
        }[kinds[t]]
        for t in range(bp.n_trials)
    ])
    ctx_batch, ctx_scalar = SolveContext(), SolveContext()
    result = water_fill_batch(bp.utilities, bp.n_trials, budgets, ctx=ctx_batch)
    for t, problem in enumerate(problems):
        scalar = water_fill(problem.utilities, float(budgets[t]), ctx=ctx_scalar)
        assert np.array_equal(result.allocations[t], scalar.allocations)
        assert float(result.total_utility[t]) == scalar.total_utility
        assert float(result.marginal_price[t]) == scalar.marginal_price
        assert int(result.iterations[t]) == scalar.iterations
    for name in (WATERFILL_CALLS, BATCH_EVALUATIONS, BISECTION_ITERATIONS):
        assert ctx_batch.counters.get(name, 0) == ctx_scalar.counters.get(name, 0), name


@settings(max_examples=20, deadline=None)
@given(instance_params)
def test_thread_order_batch_matches_scalar(params):
    from repro.core.algorithm2 import thread_order

    problems, bp = _build_batch(*params)
    blin = linearize_batch(bp)
    order = thread_order_batch(blin, bp.n_servers)
    for t in range(bp.n_trials):
        assert np.array_equal(
            order[t], thread_order(blin.trial(t), int(bp.n_servers[t]))
        )


# ---------------------------------------------------------------------------
# Harness level: backend="batch" is a pure throughput decision.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist_name", GENERATORS)
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_backends_bit_identical_across_generators(dist_name, n_jobs):
    params = _point_params(dist_name)
    ctx_s = SolveContext(cache=LinearizationCache())
    names_s, utils_s = run_point_arrays(
        **params, include_raw=True, ctx=ctx_s, n_jobs=n_jobs, backend="scalar"
    )
    ctx_b = SolveContext(cache=LinearizationCache())
    names_b, utils_b = run_point_arrays(
        **params, include_raw=True, ctx=ctx_b, n_jobs=n_jobs, backend="batch"
    )
    assert names_s == names_b
    assert np.array_equal(utils_s, utils_b)  # rtol=0: same bits
    counters_b = ctx_b.counters.snapshot()
    assert counters_b.get("batch_trials") == params["trials"]
    assert "batch_fallbacks" not in counters_b
    assert _without_routing(ctx_s.counters.snapshot()) == _without_routing(counters_b)


def test_alpha_certificate_on_batch_backend():
    params = _point_params("powerlaw")
    names, utils = run_point_arrays(**params, backend="batch")
    so = utils[:, names.index("SO")]
    alg2 = utils[:, names.index("ALG2")]
    assert np.all(alg2 >= ALPHA * so * (1.0 - 1e-12))


def test_pchip_family_falls_back_to_scalar():
    params = _point_params("uniform")
    ctx = SolveContext()
    names_a, utils_a = run_point_arrays(
        **params, interpolator="pchip", ctx=ctx, backend="auto"
    )
    counters = ctx.counters.snapshot()
    assert counters.get("batch_fallbacks") == params["trials"]
    assert "batch_trials" not in counters
    names_s, utils_s = run_point_arrays(**params, interpolator="pchip",
                                        backend="scalar")
    assert names_a == names_s
    assert np.array_equal(utils_a, utils_s)


def test_strict_batch_backend_raises_with_reason():
    params = _point_params("uniform")
    with pytest.raises(ValueError, match="no vectorized evaluation"):
        run_point_arrays(**params, interpolator="pchip", backend="batch")
    with pytest.raises(ValueError, match="ALG1"):
        run_point_arrays(**params, include_alg1=True, backend="batch")


def test_backend_argument_is_validated():
    params = _point_params("uniform")
    with pytest.raises(ValueError, match="backend"):
        run_point_arrays(**params, backend="gpu")


# ---------------------------------------------------------------------------
# Representation plumbing.
# ---------------------------------------------------------------------------

def test_concat_batches_equals_joint_construction():
    rng = np.random.default_rng(3)
    parts = []
    vs, ws = [], []
    for _ in range(3):
        a, b = rng.uniform(size=7), rng.uniform(size=7)
        v, w = np.maximum(a, b), np.minimum(a, b)
        vs.append(v)
        ws.append(w)
        parts.append(QuadSplineBatch(v, w, 1000.0))
    joined = concat_batches(parts)
    joint = QuadSplineBatch(np.concatenate(vs), np.concatenate(ws), 1000.0)
    x = rng.uniform(0.0, 1000.0, size=21)
    assert np.array_equal(joined.value(x), joint.value(x))
    assert np.array_equal(joined.inverse_derivative_each(x / 1000.0),
                          joint.inverse_derivative_each(x / 1000.0))


def test_batch_problem_validation():
    dist = make_distribution("uniform")
    problem = make_problem(dist, 3, 2.0, seed=0)
    with pytest.raises(ValueError, match="equal trials"):
        BatchProblem(problem.utilities, n_trials=4, n_servers=3, capacity=1000.0)
    with pytest.raises(ValueError, match="at least one server"):
        BatchProblem(problem.utilities, n_trials=2, n_servers=0, capacity=1000.0)
    with pytest.raises(ValueError, match="positive and finite"):
        BatchProblem(problem.utilities, n_trials=2, n_servers=3, capacity=-1.0)
    with pytest.raises(ValueError, match="equal thread counts"):
        BatchProblem.from_problems([problem, make_problem(dist, 3, 3.0, seed=0)])


def test_batch_problem_round_trips_scalar_trials():
    dist = make_distribution("discrete")
    problems = [make_problem(dist, 4, 2.5, seed=k) for k in range(3)]
    bp = BatchProblem.from_problems(problems)
    for t, problem in enumerate(problems):
        restored = bp.problem(t)
        assert restored.n_servers == problem.n_servers
        assert restored.capacity == problem.capacity
        x = np.linspace(0.0, 1000.0, problem.n_threads)
        assert np.array_equal(restored.utilities.value(x),
                              problem.utilities.value(x))


def test_generic_batch_reports_no_vectorized_support():
    dist = make_distribution("uniform")
    problem = make_problem(dist, 3, 2.0, seed=0, interpolator="pchip")
    assert isinstance(problem.utilities, GenericBatch)
    assert not problem.utilities.supports_vectorized
    assert problem.utilities.supports_vectorized is not None


def test_alg2_is_the_one_registry_name_for_its_batch_kernel():
    alg2 = get_solver("alg2")
    assert alg2.supports_batch  # attach_batch_fn wired it
    assert [s.name for s in list_solvers() if s.batch_fn is alg2.batch_fn] == ["alg2"]
    assert "batch" not in SOLVER_KINDS
