"""Runtime scaling: Algorithm 1 (O(mn²)) vs Algorithm 2 (O(n log…)).

The paper's Section VI motivation: Algorithm 2 has the same guarantee at a
much better complexity.  These benches time both on a shared instance so
the asymptotic gap is visible in the saved benchmark table.

The headline large-n bench (:func:`test_price_discovery_scaling`) takes
the comparison to n = 10⁶: Algorithm 2's max-residual walk against the
fully vectorized price-discovery solver, head-to-head on utility,
certificate ratio, iterations and wall-clock, with the table saved to
``BENCH_scaling.json`` (quick mode writes ``quick/BENCH_scaling.json``,
which git ignores).
"""

import json
import time

import pytest

from repro.core.algorithm1 import algorithm1
from repro.core.algorithm2 import algorithm2
from repro.core.linearize import linearize
from repro.allocation.waterfill import water_fill
from repro.workloads.generators import UniformDistribution, make_problem

from _common import QUICK, RESULTS_DIR, SEED, append_headline_record

GEOMETRIES = [(8, 5.0), (8, 15.0), (16, 15.0)]

#: Headline sweep sizes (threads).  Quick mode (CI smoke) stops at 10⁴.
SCALING_SIZES = [10**3, 10**4] if QUICK else [10**3, 10**4, 10**5, 10**6]

SCALING_PATH = RESULTS_DIR / "BENCH_scaling.json"


def _instance(m: int, beta: float):
    problem = make_problem(
        UniformDistribution(), n_servers=m, beta=beta, capacity=1000.0, seed=11
    )
    return problem, linearize(problem)


@pytest.mark.parametrize("m,beta", GEOMETRIES, ids=lambda v: str(v))
def test_algorithm2_scaling(benchmark, m, beta):
    problem, lin = _instance(m, beta)
    benchmark(lambda: algorithm2(problem, lin))


@pytest.mark.parametrize("m,beta", GEOMETRIES, ids=lambda v: str(v))
def test_algorithm1_scaling(benchmark, m, beta):
    problem, lin = _instance(m, beta)
    benchmark(lambda: algorithm1(problem, lin))


@pytest.mark.parametrize("n", [100, 400, 1600], ids=lambda n: f"n{n}")
def test_superoptimal_waterfill_scaling(benchmark, n):
    problem = make_problem(
        UniformDistribution(), n_servers=8, beta=n / 8, capacity=1000.0, seed=13
    )
    benchmark(lambda: water_fill(problem.utilities, problem.pool))


def test_grouped_waterfill_vs_per_server_loop(benchmark):
    """The reclamation hot path: one vectorized bisection for all servers."""
    from repro.allocation.grouped import water_fill_grouped
    import numpy as np

    problem = make_problem(
        UniformDistribution(), n_servers=16, beta=10.0, capacity=1000.0, seed=17
    )
    servers = np.arange(problem.n_threads) % 16
    budgets = np.full(16, problem.capacity)
    result = benchmark(lambda: water_fill_grouped(problem.utilities, servers, budgets))
    assert result.total_utility > 0


def test_per_server_loop_reference(benchmark):
    """The pre-optimization path (m separate scalar bisections)."""
    import numpy as np

    problem = make_problem(
        UniformDistribution(), n_servers=16, beta=10.0, capacity=1000.0, seed=17
    )
    servers = np.arange(problem.n_threads) % 16

    def run():
        total = 0.0
        for j in range(16):
            members = np.nonzero(servers == j)[0]
            total += water_fill(
                problem.utilities.subset(members), problem.capacity
            ).total_utility
        return total

    assert benchmark(run) > 0


# -- headline: price discovery vs Algorithm 2 at large n ---------------------


def _timed_solve(name: str, problem, lin):
    """Time one registry solver plus its reclaim from λ* on a shared ``lin``.

    Validation and the utility sum stay outside the timer.
    """
    from repro.core.postprocess import reclaim
    from repro.engine import SolveContext, get_solver

    spec = get_solver(name)
    ctx = SolveContext()
    t0 = time.perf_counter()
    with ctx.solve_span(name):
        assignment = spec.run(problem, lin=lin, ctx=ctx)
        if spec.reclaim:
            assignment = reclaim(problem, assignment, ctx=ctx, start=lin.price)
    return assignment, time.perf_counter() - t0


def _scaling_point(n: int) -> dict:
    """Head-to-head alg2 vs price_discovery on one n = 8m uniform instance."""
    from repro.engine import SolveContext
    from repro.observability import BISECTION_ITERATIONS

    m = n // 8
    problem = make_problem(
        UniformDistribution(), n_servers=m, beta=8.0, capacity=1000.0, seed=SEED
    )

    ctxl = SolveContext()
    t0 = time.perf_counter()
    lin = linearize(problem, ctx=ctxl)
    linearize_s = time.perf_counter() - t0
    bound = water_fill(problem.utilities, problem.pool).total_utility

    alg2, alg2_s = _timed_solve("alg2", problem, lin)
    alg2_utility = alg2.total_utility(problem)

    priced, price_s = _timed_solve("price_discovery", problem, lin)
    priced.validate(problem)
    price_utility = priced.total_utility(problem)

    return {
        "n": n,
        "m": m,
        "bound": bound,
        "linearize_s": linearize_s,
        "alg2": {"utility": alg2_utility, "ratio": alg2_utility / bound, "s": alg2_s},
        "price_discovery": {
            "utility": price_utility,
            "ratio": price_utility / bound,
            "s": price_s,
            # Price-search steps of the super-optimal fill that finds λ*.
            "iterations": int(ctxl.counters[BISECTION_ITERATIONS]),
        },
        "speedup": alg2_s / price_s,
        "utility_vs_alg2": price_utility / alg2_utility,
    }


#: Full mode's gate at n = 10⁵: price discovery beats alg2 by at least
#: this factor.  Seven full-mode runs on a 2-core host read 2.22–2.61
#: (median 2.38); the bound sits below the lowest run by three times the
#: runs' half-range (2.22 − 3·0.195 ≈ 1.64), rounded down, and above 1.
BEATS_ALG2_AT_1E5 = 1.5


def test_price_discovery_scaling(benchmark):
    """The headline: vectorized price discovery vs Algorithm 2's walk.

    Full mode sweeps n up to 10⁶ and gates the n = 10⁵ point on the
    claim that price discovery beats alg2 (wall-clock speedup at least
    ``BEATS_ALG2_AT_1E5``, a bound set from the measured spread; the
    committed BENCH_scaling.json records the measured ratio) within 1% of
    alg2's utility; quick mode stops at 10⁴ and only gates parity.  Both
    solvers are handed the same precomputed linearization, so each time
    covers the solver's own work alone (``linearize_s`` records the
    shared precomputation).
    """
    points = benchmark.pedantic(
        lambda: [_scaling_point(n) for n in SCALING_SIZES], rounds=1, iterations=1
    )

    print("\n=== price discovery vs alg2 scaling ===")
    print(f"{'n':>9} {'alg2 s':>9} {'price s':>9} {'speedup':>8} {'du':>9}")
    for p in points:
        print(
            f"{p['n']:>9} {p['alg2']['s']:>9.3f} {p['price_discovery']['s']:>9.3f} "
            f"{p['speedup']:>8.2f} {p['utility_vs_alg2'] - 1.0:>+9.4%}"
        )

    doc = {"format": "aart-bench-scaling/1", "quick": QUICK, "points": points}
    SCALING_PATH.parent.mkdir(exist_ok=True)
    SCALING_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    largest = points[-1]
    append_headline_record(
        "scaling",
        {
            "n": largest["n"],
            "speedup": largest["speedup"],
            "utility_vs_alg2": largest["utility_vs_alg2"],
            "price_ratio": largest["price_discovery"]["ratio"],
        },
    )

    for p in points:
        assert p["utility_vs_alg2"] >= 0.99, f"n={p['n']}: parity broken"
        assert p["price_discovery"]["ratio"] <= 1.0 + 1e-9
    if not QUICK:
        gate = next(p for p in points if p["n"] == 10**5)
        assert gate["speedup"] >= BEATS_ALG2_AT_1E5, (
            f"n=1e5 speedup {gate['speedup']:.2f} < {BEATS_ALG2_AT_1E5}"
        )
