"""Demand-evaluation budgets of the water-fill price search.

Deterministic counts, no timing: every fill's cost is its number of
demand evaluations (one pass over the pool's threads each), and the
geometric bracket plus Anderson–Björck regula falsi must keep those
counts well under the ~40 that bisecting to ``rel_tol = 1e-12`` took.
The instances mirror the benchmark's workloads: the large-n super-optimal
fill and Algorithm 2's reclaim (n = 10⁵, β = 8), the online
scheduler's warm-started fills at churn's size (m = 8, 128 residents),
and the sweep's trial-batched reclaim.
"""

import numpy as np
import pytest

import repro
from repro.allocation.grouped import water_fill_grouped
from repro.allocation.prices import pack_demands_batch, price_discovery_batch_kernel
from repro.allocation.waterfill import water_fill
from repro.core.algorithm2 import algorithm2
from repro.core.batch import BatchAssignment, BatchProblem, linearize_batch, reclaim_batch
from repro.core.linearize import linearize
from repro.core.postprocess import reclaim
from repro.engine import SolveContext
from repro.experiments import harness
from repro.experiments.figures import FIGURES
from repro.extensions.online import OnlineScheduler
from repro.observability import BATCH_EVALUATIONS, GROUPED_BISECTION_ITERATIONS, RECLAIM_CALLS
from repro.utility.batch import QuadSplineBatch
from repro.workloads import UniformDistribution, make_problem, paper_utilities

CAP = 1000.0


@pytest.fixture(scope="module")
def big_problem():
    """The benchmark's large instance shape: n = 10⁵ paper quadsplines, β = 8."""
    return make_problem(UniformDistribution(), 12_500, 8.0, CAP, seed=[1, 5, 0])


def test_large_super_optimal_fill_takes_at_most_20_steps(big_problem):
    """A cold fill at budget m·C: about 10 halvings from the opening price
    1 down to the clearing price ≈ 1.8e-3, then a few secant steps."""
    ctx = SolveContext()
    res = water_fill(big_problem.utilities, 12_500 * CAP, ctx=ctx)
    assert res.iterations <= 20
    assert ctx.counters[BATCH_EVALUATIONS] == res.iterations + 3


def test_alg2_reclaim_takes_at_most_30_grouped_passes(big_problem):
    """Algorithm 2 leaves a hockey-stick pool (tens of thousands of
    zero-grant threads on one server); Anderson–Björck keeps its search
    short where a fixed Illinois halving crawls."""
    ctx = SolveContext()
    repro.solve(big_problem, "alg2", ctx=ctx)
    assert ctx.counters[GROUPED_BISECTION_ITERATIONS] <= 30


def test_alg2_reclaim_from_the_clearing_price_takes_fewer_passes(big_problem):
    """``solve()`` holds the linearization, so its reclaim starts every
    server's price search at λ* (18 grouped passes on this instance)
    instead of 1 (27)."""
    lin = linearize(big_problem)
    cold = SolveContext()
    reclaim(big_problem, algorithm2(big_problem, lin), cold)
    warm = SolveContext()
    repro.solve(big_problem, "alg2", lin=lin, ctx=warm)
    assert warm.counters[RECLAIM_CALLS] == cold.counters[RECLAIM_CALLS] == 1
    passes = warm.counters[GROUPED_BISECTION_ITERATIONS]
    assert passes < cold.counters[GROUPED_BISECTION_ITERATIONS]
    assert passes <= 20


def test_discovered_price_start_cuts_the_refill(big_problem):
    """Price discovery's refill starts every server at the linearization's
    clearing price λ*.  From the default start of 1 the same refill takes
    about 3× the passes; both reach the same utility (the refill tolerance,
    1e-6 on the price, leaves near-tied threads' split free)."""
    bp = BatchProblem(big_problem.utilities, 1, big_problem.n_servers, CAP)
    lin = linearize_batch(bp)
    servers, alloc = pack_demands_batch(lin.c_hat, bp.n_servers, bp.capacity)
    packed = BatchAssignment(servers, alloc)
    passes, utilities = [], []
    for start in (None, lin.price):
        ctx = SolveContext()
        out = reclaim_batch(bp, packed, ctx, rel_tol=1e-6, start=start)
        passes.append(ctx.counters[GROUPED_BISECTION_ITERATIONS])
        utilities.append(bp.utilities.total(out.allocations[0]))
    cold, warm = passes
    assert warm <= 15 and 2 * warm <= cold
    assert utilities[1] == pytest.approx(utilities[0], rel=1e-9)
    # The solver's own refill is the warm one.
    ctx = SolveContext()
    price_discovery_batch_kernel(bp, lin, ctx)
    assert ctx.counters[GROUPED_BISECTION_ITERATIONS] == warm


def test_churn_fills_average_at_most_6_passes(monkeypatch):
    """Placement and departure fills start each server at its current
    price, so a churn step costs a few passes instead of ~40."""
    import repro.extensions.online as online

    utilities = paper_utilities(UniformDistribution(), 528, CAP, seed=7).functions()
    s = OnlineScheduler(8, CAP)
    for k in range(128):
        s.add_thread(f"r{k}", utilities[k])
    passes = []

    def counted(*args, **kwargs):
        res = water_fill_grouped(*args, **kwargs)
        passes.append(res.iterations)
        return res

    monkeypatch.setattr(online, "water_fill_grouped", counted)
    for k in range(200):
        s.add_thread(f"n{k}", utilities[128 + k])
        s.remove_thread(s.thread_ids[0])
        s.total_utility()  # settles the departure's server
    assert len(passes) == 400
    assert np.mean(passes) <= 6.0


def test_sweep_reclaim_evaluates_at_most_25_times_per_thread(monkeypatch):
    """The sweep's reclaim at fig1a's β = 15 point (seeded as the benchmark
    seeds it; 200 trials × 8 servers) runs its 1,600 pools in lock-step.
    Most pools settle in about 14 passes, a few take 40-odd.  Passes over
    only the pools still searching keep the demand evaluations per thread
    near 20; evaluating every pool on every pass cost 48."""
    trials, beta = 200, 15
    evaluated, counting = [], []
    demand = QuadSplineBatch.inverse_derivative_each

    def counted(self, lam):
        if counting:
            evaluated.append(len(self))
        return demand(self, lam)

    def reclaim(*args, **kwargs):
        counting.append(True)
        try:
            return reclaim_batch(*args, **kwargs)
        finally:
            counting.clear()

    monkeypatch.setattr(QuadSplineBatch, "inverse_derivative_each", counted)
    monkeypatch.setattr(harness, "reclaim_batch", reclaim)
    dist, _ = FIGURES["fig1a"].factory(beta)
    harness.run_point_arrays(dist, 8, float(beta), CAP, trials, seed=[1, 0, beta],
                             backend="batch")
    assert evaluated
    assert sum(evaluated) / (trials * 8 * beta) <= 25
