"""The unified solver engine: registry, instrumented context, shared cache.

Everything in the codebase that runs an AA solver — the ``solve()``
facade, the Section VII experiment harness, the CLI, the three
application simulators, the extensions — resolves it here:

>>> from repro.engine import get_solver
>>> spec = get_solver("alg2")
>>> spec.ratio                                        # doctest: +ELLIPSIS
0.828...

Three pieces:

* the **registry** (:func:`register_solver` / :func:`get_solver` /
  :func:`list_solvers`): paper algorithms, the four Section VII
  heuristics, and extension solvers all carry uniform metadata
  (approximation ratio, complexity class, whether reclamation applies);
* the **context** (:class:`SolveContext`): RNG + deadline + counters,
  spans and an optional JSONL event sink, threaded through ``linearize``,
  ``water_fill``, both algorithms and the reclamation pass;
* the **cache** (:class:`LinearizationCache`): the ``O(n(log mC)²)``
  super-optimal precomputation is identical for every solver run on the
  same instance (Lemmas V.2–V.4), so it is computed once and shared
  across ALG1/ALG2/heuristic contenders.

:func:`repro.core.solve.solve` composes the three: resolve, share the
linearization, run instrumented, reclaim, validate and certify.
"""

from __future__ import annotations

from repro.engine.cache import LinearizationCache
from repro.engine.context import SolveContext, SolveTimeout
from repro.engine.parallel import default_chunksize, map_trials, resolve_jobs
from repro.engine.registry import (
    SOLVER_KINDS,
    RegistryView,
    Solver,
    SolverSpec,
    attach_batch_fn,
    get_solver,
    list_solvers,
    register_solver,
    solver_table,
    unregister_solver,
)

_BUILTINS_LOADED = False


def _load_builtins() -> None:
    """Import every module whose import registers a built-in solver."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True  # set first: the imports below re-enter get_solver
    import repro.core.algorithm1  # noqa: F401  (registers "alg1")
    import repro.core.algorithm2  # noqa: F401  (registers "alg2")
    import repro.assign.heuristics  # noqa: F401  (registers UU/UR/RU/RR)
    import repro.extensions.localsearch  # noqa: F401  (registers "localsearch")
    import repro.extensions.weighted  # noqa: F401  (registers "weighted")
    import repro.extensions.heterogeneous  # noqa: F401  (registers "alg2_hetero")
    import repro.allocation.prices  # noqa: F401  (registers "price_discovery")

    # Last: imports repro.core.algorithm2 and attaches alg2's batch_fn, so
    # the scalar registration above must already be in place.
    import repro.core.algorithm2_batch  # noqa: F401  (alg2's batch_fn)


__all__ = [
    "LinearizationCache",
    "RegistryView",
    "SOLVER_KINDS",
    "SolveContext",
    "SolveTimeout",
    "Solver",
    "SolverSpec",
    "attach_batch_fn",
    "default_chunksize",
    "get_solver",
    "list_solvers",
    "map_trials",
    "register_solver",
    "resolve_jobs",
    "solver_table",
    "unregister_solver",
]
