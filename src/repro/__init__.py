"""aart — assign-and-allocate resource toolkit.

Reproduction of "Utility Maximizing Thread Assignment and Resource
Allocation" (Lai, Fan, Zhang, Liu — IPDPS 2016): jointly assign threads to
homogeneous servers and allocate each server's resource to maximize total
concave utility.

Quickstart::

    import numpy as np
    from repro import AAProblem, solve
    from repro.utility import LogUtility

    threads = [LogUtility(coeff=c, scale=10.0, cap=100.0) for c in (1, 2, 3, 4)]
    problem = AAProblem(threads, n_servers=2, capacity=100.0)
    sol = solve(problem)          # Algorithm 2, certified >= 0.828 * OPT
    print(sol.total_utility, sol.certified_ratio)

Every solver — the paper algorithms, the Section VII heuristics, the
extensions — is registered in the unified engine and runs through
``solve()``::

    from repro import engine
    spec = engine.get_solver("alg2")       # metadata: ratio, complexity, ...
    sol = solve(problem, "RR", seed=0)     # any registered name, certified

See DESIGN.md for the full system inventory, docs/engine.md for the
solver engine, and EXPERIMENTS.md for the paper-vs-measured record of
every figure.
"""

from repro import engine
from repro.core import (
    ALPHA,
    AAProblem,
    Assignment,
    Linearization,
    Solution,
    algorithm1,
    algorithm2,
    exact_continuous,
    linearize,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "ALPHA",
    "AAProblem",
    "Assignment",
    "Linearization",
    "Solution",
    "algorithm1",
    "algorithm2",
    "engine",
    "exact_continuous",
    "linearize",
    "solve",
    "__version__",
]
