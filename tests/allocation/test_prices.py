"""Price-discovery solver: oracle parity, certificates, batch identity.

The solver's contract has two regimes.  On arbitrary tiny instances it
only promises feasibility (prefix packing is crude when one thread's
demand rivals a whole server), so the universal hypothesis properties
here assert the *guaranteed* invariants: validity, capacity respect,
scalar/batch bit-identity.  In the regime it was built for — many
threads per server, thread caps well below pooled capacity (the paper's
workload shape) — it tracks the Algorithm-2 oracle closely, and the
oracle-parity tests pin calibrated rtols there (worst observed gap ≈ 2.9%
at beta 8 over uniform/normal; ≈ 0.3% by m = 64).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocation import pack_demands_batch, price_discovery_batch_kernel
from repro.core.batch import BatchProblem, linearize_batch
from repro.core.problem import AAProblem
from repro.core.solve import solve
from repro.engine import SolveContext, SolveTimeout, get_solver, run_solver
from repro.observability import (
    LINEARIZE_CALLS,
    PRICE_CONVERGENCE_RESIDUAL,
    PRICE_ITERATIONS,
    PRICE_UPDATE_ITERATIONS,
    WATERFILL_CALLS,
)
from repro.utility.functions import LinearUtility
from repro.workloads.generators import make_distribution, make_problem

from tests.conftest import aa_problems

DISTS = {name: make_distribution(name) for name in ("uniform", "normal")}


def _paper_problem(dist_name, m, beta, seed):
    return make_problem(DISTS[dist_name], n_servers=m, beta=beta, seed=seed)


# -- universal invariants (any instance) ------------------------------------


@settings(max_examples=40, deadline=None)
@given(aa_problems(max_threads=10, max_servers=4))
def test_always_feasible(problem):
    a = run_solver("price_discovery", problem).assignment
    a.validate(problem)
    assert np.all(a.allocations >= 0.0)
    assert np.all(a.server_loads(problem.n_servers) <= problem.capacity + 1e-9)


@settings(max_examples=25, deadline=None)
@given(aa_problems(max_threads=8, max_servers=3))
def test_scalar_equals_one_trial_batch(problem):
    scalar = run_solver("price_discovery", problem).assignment
    bp = BatchProblem(
        problem.utilities,
        n_trials=1,
        n_servers=problem.n_servers,
        capacity=problem.capacity,
    )
    batch = price_discovery_batch_kernel(bp, linearize_batch(bp))
    assert np.array_equal(scalar.servers, batch.servers[0])
    assert np.array_equal(scalar.allocations, batch.allocations[0])


# -- oracle parity in the target regime -------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    dist_name=st.sampled_from(sorted(DISTS)),
    m=st.integers(min_value=4, max_value=16),
    beta=st.floats(min_value=6.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# Packing a tatonnement's demands once fell below the bound here (19.709
# against 0.95 x 21.311); packing the exact super-optimal demands clears it.
@example(dist_name="normal", m=4, beta=6.25, seed=23461840)
def test_utility_within_rtol_of_alg2_oracle(dist_name, m, beta, seed):
    problem = _paper_problem(dist_name, m, beta, seed)
    oracle = run_solver("alg2", problem).assignment.total_utility(problem)
    priced = run_solver("price_discovery", problem)
    priced.assignment.validate(problem)
    utility = priced.assignment.total_utility(problem)
    assert utility >= oracle * (1.0 - 0.05)


def test_large_instance_tracks_oracle_within_one_percent():
    problem = _paper_problem("uniform", 64, 8.0, 123)
    oracle = run_solver("alg2", problem).assignment.total_utility(problem)
    utility = run_solver("price_discovery", problem).assignment.total_utility(problem)
    assert utility >= oracle * 0.99


def test_certified_through_solve_facade():
    problem = _paper_problem("uniform", 16, 8.0, 7)
    sol = solve(problem, algorithm="price_discovery")
    assert sol.algorithm == "price_discovery"
    assert 0.95 <= sol.certified_ratio <= 1.0 + 1e-9


def test_per_server_refill_is_kkt_optimal():
    from repro.allocation import kkt_violation

    problem = _paper_problem("uniform", 16, 8.0, 3)
    a = run_solver("price_discovery", problem).assignment
    for j in range(problem.n_servers):
        members = np.where(a.servers == j)[0]
        if members.size == 0:
            continue
        load = float(a.allocations[members].sum())
        sub = problem.utilities.subset(members)
        assert kkt_violation(sub, a.allocations[members], load) <= 1e-3


# -- the shared linearization ------------------------------------------------


def test_slack_pool_grants_caps():
    """When the pooled capacity covers every cap, λ* is 0 and the refill's
    price search falls back to its default start: every thread gets its cap."""
    problem = AAProblem(
        [LinearUtility(2.0, 5.0), LinearUtility(1.0, 5.0)], n_servers=2, capacity=10.0
    )
    run = run_solver("price_discovery", problem)
    assert run.linearization.price == 0.0
    assert np.array_equal(run.assignment.allocations, [5.0, 5.0])


# -- packing ----------------------------------------------------------------


def test_pack_demands_respects_capacity_and_demands():
    rng = np.random.default_rng(0)
    demands = rng.uniform(0.0, 4.0, (5, 40))
    servers, alloc = pack_demands_batch(demands, n_servers=6, capacity=10.0)
    assert servers.shape == alloc.shape == demands.shape
    assert np.all((servers >= 0) & (servers < 6))
    assert np.all(alloc >= 0.0)
    assert np.all(alloc <= demands + 1e-12)
    for t in range(5):
        loads = np.bincount(servers[t], weights=alloc[t], minlength=6)
        assert np.all(loads <= 10.0 + 1e-9)
        # Only boundary-straddling threads lose anything, at most one per
        # server boundary (the refill stage recovers the clipped utility).
        total = float(demands[t].sum())
        packed = float(alloc[t].sum())
        assert packed <= min(total, 60.0) + 1e-9
        assert packed >= min(total, 60.0) - 5 * float(demands[t].max())


def test_pack_demands_exact_when_one_server_suffices():
    rng = np.random.default_rng(1)
    demands = rng.uniform(0.0, 0.3, (4, 30))  # totals < one server's 10.0
    servers, alloc = pack_demands_batch(demands, n_servers=3, capacity=10.0)
    assert np.array_equal(alloc, demands)
    assert np.all(servers == 0)


# -- batch twin, counters, observability -------------------------------------


def test_batch_twin_bit_identical_and_counter_parity():
    problems = [_paper_problem("uniform", 8, 8.0, 200 + s) for s in range(3)]
    bp = BatchProblem.from_problems(problems)
    ctx_b = SolveContext()
    batch = price_discovery_batch_kernel(bp, linearize_batch(bp, ctx_b), ctx_b)
    summed = {}
    for t, problem in enumerate(problems):
        ctx_s = SolveContext()
        scalar = run_solver("price_discovery", problem, ctx=ctx_s).assignment
        assert np.array_equal(scalar.servers, batch.servers[t])
        assert np.array_equal(scalar.allocations, batch.allocations[t])
        for name, value in ctx_s.counters.items():
            summed[name] = summed.get(name, 0) + value
    # Lock-step batch totals are exactly the per-trial scalar sums.
    assert {k: v for k, v in ctx_b.counters.items()} == summed


def test_one_super_optimal_fill_per_solve():
    """Through the facade, the certificate's fill is the solver's: one
    linearization, one pooled water-fill, and no tatonnement."""
    from repro.observability import MetricsRegistry

    problem = _paper_problem("uniform", 8, 8.0, 11)
    ctx = SolveContext(metrics=MetricsRegistry())
    solve(problem, "price_discovery", ctx=ctx)
    assert ctx.counters[LINEARIZE_CALLS] == 1
    assert ctx.counters[WATERFILL_CALLS] == 1
    for name in (PRICE_UPDATE_ITERATIONS, PRICE_CONVERGENCE_RESIDUAL):
        assert name not in ctx.counters
    assert ctx.metrics.histogram(PRICE_ITERATIONS).count == 0


def test_solve_span_traced():
    problem = _paper_problem("uniform", 4, 8.0, 5)
    ctx = SolveContext()
    run_solver("price_discovery", problem, ctx=ctx)
    spans = ctx.spans.snapshot()
    assert "solve.price_discovery" in spans
    assert "linearize" in spans
    assert "pack" in spans
    assert "reclaim" in spans


def test_deadline_abandon_mid_iteration():
    problem = _paper_problem("uniform", 64, 8.0, 9)
    with pytest.raises(SolveTimeout):
        run_solver("price_discovery", problem, ctx=SolveContext(budget_s=1e-9))


# -- registry ----------------------------------------------------------------


def test_registry_spec_contract():
    spec = get_solver("price_discovery")
    assert spec.kind == "extension"
    assert spec.reclaim is False  # the refill stage IS its reclamation
    assert spec.uses_linearization is True
    assert spec.batch_fn is not None
