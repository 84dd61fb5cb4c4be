#!/usr/bin/env python3
"""Price-discovery oracle-equivalence smoke run (also the CI scaling job).

Verifies the price-discovery solver's contract from the outside:

* on paper-shaped instances its utility stays within 1% of the ``alg2``
  oracle (the regime the solver targets: beta = 8, thread caps well
  below pooled capacity);
* the plan is feasible and every server's refill is water-fill optimal
  (KKT certificate);
* the registered scalar solver and its trial-batched twin return the
  **same bits** and the same per-trial-equivalent counter totals;
* the certificate ratio against the super-optimal bound F̂ never
  exceeds 1;
* a deadline abandons the solve with ``SolveTimeout``.

Exits non-zero on any violated invariant.

Run:  PYTHONPATH=src python examples/price_oracle_smoke.py
"""

import sys

import numpy as np

from repro.allocation import kkt_violation, price_discovery_batch_kernel
from repro.core.batch import BatchProblem, linearize_batch
from repro.core.solve import solve
from repro.engine import SolveContext, SolveTimeout, run_solver
from repro.workloads.generators import UniformDistribution, make_problem

DIST = UniformDistribution()


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def main() -> None:
    # 1. oracle parity + certificate on paper-shaped instances
    for m, seed in ((16, 0), (32, 1), (64, 2)):
        problem = make_problem(DIST, n_servers=m, beta=8.0, capacity=1000.0, seed=seed)
        oracle = run_solver("alg2", problem).assignment.total_utility(problem)
        sol = solve(problem, algorithm="price_discovery")
        if sol.total_utility < oracle * 0.99:
            fail(
                f"m={m}: price utility {sol.total_utility:.2f} is more than "
                f"1% below the alg2 oracle {oracle:.2f}"
            )
        if sol.certified_ratio > 1.0 + 1e-9:
            fail(f"m={m}: certificate ratio {sol.certified_ratio} above 1")
        print(
            f"ok m={m:3d}: price/alg2 = {sol.total_utility / oracle:.5f}, "
            f"certified {sol.certified_ratio:.4f}"
        )

    # 2. per-server KKT optimality of the refill stage
    problem = make_problem(DIST, n_servers=16, beta=8.0, capacity=1000.0, seed=3)
    a = run_solver("price_discovery", problem).assignment
    for j in range(problem.n_servers):
        members = np.where(a.servers == j)[0]
        if members.size == 0:
            continue
        load = float(a.allocations[members].sum())
        v = kkt_violation(problem.utilities.subset(members), a.allocations[members], load)
        if v > 1e-3:
            fail(f"server {j}: refill not KKT-optimal (violation {v})")
    print("ok refill: every server KKT-optimal")

    # 3. scalar vs batch bit-identity and counter parity
    problems = [
        make_problem(DIST, n_servers=8, beta=8.0, capacity=1000.0, seed=40 + t)
        for t in range(4)
    ]
    ctx_b = SolveContext()
    bp = BatchProblem.from_problems(problems)
    batch = price_discovery_batch_kernel(bp, linearize_batch(bp, ctx_b), ctx_b)
    summed: dict = {}
    for t, p in enumerate(problems):
        ctx_s = SolveContext()
        scalar = run_solver("price_discovery", p, ctx=ctx_s).assignment
        if not (
            np.array_equal(scalar.servers, batch.servers[t])
            and np.array_equal(scalar.allocations, batch.allocations[t])
        ):
            fail(f"trial {t}: batch twin is not bit-identical to the scalar solver")
        for name, value in ctx_s.counters.items():
            summed[name] = summed.get(name, 0) + value
    if dict(ctx_b.counters.items()) != summed:
        fail(
            f"counter parity broken: batch {dict(ctx_b.counters.items())} "
            f"!= scalar sums {summed}"
        )
    print("ok batch twin: bit-identical, counters match per-trial sums")

    # 4. deadline abandonment
    big = make_problem(DIST, n_servers=64, beta=8.0, capacity=1000.0, seed=9)
    try:
        run_solver("price_discovery", big, ctx=SolveContext(budget_s=1e-9))
    except SolveTimeout:
        print("ok deadline: SolveTimeout raised mid-solve")
    else:
        fail("deadline ignored: expected SolveTimeout")

    print("price-discovery oracle smoke: all invariants hold")


if __name__ == "__main__":
    main()
