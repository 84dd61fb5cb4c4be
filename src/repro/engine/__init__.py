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

:func:`run_solver` composes the three: resolve, share the linearization,
run instrumented, optionally reclaim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.linearize import Linearization
    from repro.core.problem import AAProblem, Assignment
    from repro.utils.rng import SeedLike

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
    # the scalar registrations above must already be in place.
    import repro.core.algorithm2_batch  # noqa: F401  (registers "algorithm2_batch")


def get_linearization(
    problem: "AAProblem", ctx: SolveContext | None = None
) -> "Linearization":
    """The instance's shared linearization — cached when ``ctx`` has a cache."""
    if ctx is not None:
        return ctx.linearization(problem)
    from repro.core.linearize import linearize

    return linearize(problem)


@dataclass(frozen=True)
class EngineRun:
    """Outcome of one :func:`run_solver` call."""

    assignment: "Assignment"
    linearization: "Linearization | None"
    spec: SolverSpec

    @property
    def solver(self) -> str:
        return self.spec.name


def run_solver(
    name: str,
    problem: "AAProblem",
    *,
    lin: "Linearization | None" = None,
    ctx: SolveContext | None = None,
    seed: "SeedLike" = None,
    reclaim: bool = True,
) -> EngineRun:
    """Resolve ``name`` in the registry and run it on ``problem``.

    Parameters
    ----------
    name:
        A registered solver name (see :func:`list_solvers`).
    lin:
        Optional precomputed linearization; resolved through ``ctx``'s
        cache (or computed fresh) when the solver needs one and none is
        given.
    ctx:
        Optional instrumented context (counters, spans, deadline, cache).
    seed:
        Randomness for stochastic solvers; deterministic solvers ignore
        it.  Defaults to ``ctx.rng`` when a context is supplied.
    reclaim:
        Apply the utility-preserving reclamation post-pass *if* the
        solver's spec says it applies (paper algorithms yes, raw
        heuristics no).  Pass ``False`` for the verbatim algorithm.  With a
        linearization in hand, every server's price search starts at its
        clearing price ``λ*``.
    """
    spec = get_solver(name)
    if ctx is None:
        if spec.uses_linearization and lin is None:
            lin = get_linearization(problem, None)
        assignment = spec.fn(problem, lin, None, seed)
        if reclaim and spec.reclaim:
            from repro.core.postprocess import reclaim as _reclaim

            start = None if lin is None else lin.price
            assignment = _reclaim(problem, assignment, ctx=None, start=start)
        return EngineRun(assignment=assignment, linearization=lin, spec=spec)
    # One solve.<name> root span per solve: linearization, solver and
    # reclamation all trace as its children.
    with ctx.solve_span(spec.name):
        if spec.uses_linearization and lin is None:
            lin = get_linearization(problem, ctx)
        if seed is None:
            seed = ctx.rng
        assignment = spec.fn(problem, lin, ctx, seed)
        if reclaim and spec.reclaim:
            from repro.core.postprocess import reclaim as _reclaim

            start = None if lin is None else lin.price
            assignment = _reclaim(problem, assignment, ctx=ctx, start=start)
    return EngineRun(assignment=assignment, linearization=lin, spec=spec)


__all__ = [
    "EngineRun",
    "LinearizationCache",
    "RegistryView",
    "SOLVER_KINDS",
    "SolveContext",
    "SolveTimeout",
    "Solver",
    "SolverSpec",
    "attach_batch_fn",
    "default_chunksize",
    "get_linearization",
    "get_solver",
    "list_solvers",
    "map_trials",
    "register_solver",
    "resolve_jobs",
    "run_solver",
    "solver_table",
    "unregister_solver",
]
