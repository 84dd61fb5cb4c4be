"""The global solver registry: one namespace for every way to solve AA.

Historically the codebase kept three parallel dispatch tables — a private
``_ALGORITHMS`` dict in ``core/solve.py``, a ``HEURISTICS`` dict in
``assign/heuristics.py``, and hand-written ``if method == ...`` ladders in
each simulator.  This module replaces all of them: solvers self-register a
:class:`SolverSpec` (uniform callable contract plus metadata — guarantee,
complexity class, whether the reclamation post-pass applies), and every
layer resolves names through :func:`get_solver`.

This module is deliberately import-light (stdlib + typing only) so solver
modules can import it at definition time without cycles; the engine
package front door (:mod:`repro.engine`) triggers the built-in
registrations lazily.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.linearize import Linearization
    from repro.core.problem import AAProblem, Assignment
    from repro.engine.context import SolveContext
    from repro.utils.rng import SeedLike


@runtime_checkable
class Solver(Protocol):
    """The uniform solver contract stored in :class:`SolverSpec.fn`.

    ``fn(problem, lin, ctx, seed)`` returns a feasible raw
    :class:`~repro.core.problem.Assignment` (no reclamation applied).
    ``lin`` is the shared linearization (``None`` when the solver declared
    it does not use one); ``ctx`` is an optional instrumented
    :class:`~repro.engine.context.SolveContext`; ``seed`` feeds randomized
    solvers and is ignored by deterministic ones.
    """

    def __call__(
        self,
        problem: "AAProblem",
        lin: "Linearization | None",
        ctx: "SolveContext | None",
        seed: "SeedLike",
    ) -> "Assignment":  # pragma: no cover
        ...


@dataclass(frozen=True)
class SolverSpec:
    """A registered solver plus its uniform metadata.

    Attributes
    ----------
    name:
        Registry key (``"alg2"``, ``"UU"``, ``"localsearch"``, …).
    fn:
        Normalized callable, see :class:`Solver`.
    kind:
        ``"paper"`` (the approximation algorithms), ``"heuristic"``
        (Section VII baselines) or ``"extension"`` (engineering add-ons).
        A trial-batched kernel is no kind of its own: it rides on its
        scalar solver's spec as :attr:`batch_fn`.
    ratio:
        Proven worst-case approximation ratio, or ``None`` when no bound
        is claimed (heuristics, heterogeneous adapter).
    complexity:
        Human-readable complexity class (shown in the registry table).
    reclaim:
        Whether the utility-preserving reclamation post-pass applies to
        this solver's output (it does for the paper algorithms; the
        baselines are reported raw, as in the paper's figures).
    uses_linearization:
        Whether the solver consumes the shared super-optimal
        linearization (and therefore benefits from the
        :class:`~repro.engine.cache.LinearizationCache`).
    randomized:
        Whether the solver's output depends on ``seed``.
    description:
        One-line summary for tables and docs.
    batch_fn:
        Optional trial-batched implementation with contract
        ``batch_fn(batch_problem, batch_lin, ctx, rngs) -> BatchAssignment``
        (see :mod:`repro.core.batch`); ``batch_lin`` is ``None`` when the
        solver does not use a linearization, and ``rngs`` is the chunk's
        :class:`~repro.utils.rng.TrialStreams`, one lane per trial, for
        randomized solvers.  The experiment
        harness routes a contender through ``batch_fn`` when present and
        the point's utilities are vectorizable; results must be
        bit-identical to running ``fn`` per trial.
    """

    name: str
    fn: Callable
    kind: str
    ratio: float | None = None
    complexity: str = ""
    reclaim: bool = False
    uses_linearization: bool = False
    randomized: bool = False
    description: str = ""
    batch_fn: Callable | None = None

    @property
    def supports_batch(self) -> bool:
        """Whether a trial-batched implementation is attached."""
        return self.batch_fn is not None

    def run(
        self,
        problem: "AAProblem",
        *,
        lin: "Linearization | None" = None,
        ctx: "SolveContext | None" = None,
        seed: "SeedLike" = None,
    ) -> "Assignment":
        """Run the solver, resolving a missing linearization if it needs one.

        Returns the *raw* assignment — callers (or
        :func:`repro.core.solve.solve`) decide about reclamation.  With
        an instrumented context the whole solve runs under a
        ``solve.<name>`` root span, so linearization and solver spans
        become its children in the context's trace tree.
        """
        if ctx is None:
            if self.uses_linearization and lin is None:
                from repro.core.linearize import linearize

                lin = linearize(problem)
            return self.fn(problem, lin, ctx, seed)
        with ctx.solve_span(self.name):
            if self.uses_linearization and lin is None:
                lin = ctx.linearization(problem)
            return self.fn(problem, lin, ctx, seed)

    def __call__(
        self,
        problem: "AAProblem",
        *,
        lin: "Linearization | None" = None,
        ctx: "SolveContext | None" = None,
        seed: "SeedLike" = None,
    ) -> "Assignment":
        """Alias for :meth:`run` so specs drop in for bare heuristic callables."""
        return self.run(problem, lin=lin, ctx=ctx, seed=seed)


_REGISTRY: dict[str, SolverSpec] = {}


#: Valid :attr:`SolverSpec.kind` values, in display order.
SOLVER_KINDS = ("paper", "heuristic", "extension")


def register_solver(
    name: str,
    fn: Callable,
    *,
    kind: str,
    ratio: float | None = None,
    complexity: str = "",
    reclaim: bool = False,
    uses_linearization: bool = False,
    randomized: bool = False,
    description: str = "",
    batch_fn: Callable | None = None,
    replace: bool = False,
) -> SolverSpec:
    """Register a solver under ``name``; returns the stored spec.

    Re-registering an existing name raises unless ``replace=True`` (tests
    use ``replace`` to stub solvers; production code never should).
    """
    if kind not in SOLVER_KINDS:
        raise ValueError(
            f"kind must be one of {', '.join(map(repr, SOLVER_KINDS))}, got {kind!r}"
        )
    if not replace and name in _REGISTRY:
        raise ValueError(f"solver {name!r} is already registered")
    spec = SolverSpec(
        name=name,
        fn=fn,
        kind=kind,
        ratio=ratio,
        complexity=complexity,
        reclaim=reclaim,
        uses_linearization=uses_linearization,
        randomized=randomized,
        description=description,
        batch_fn=batch_fn,
    )
    _REGISTRY[name] = spec
    return spec


def attach_batch_fn(name: str, batch_fn: Callable) -> SolverSpec:
    """Attach a trial-batched implementation to an already-registered solver.

    Batched kernels typically live in a separate module that imports the
    scalar solver (never the reverse), so they bolt their ``batch_fn``
    onto the existing spec at import time instead of registering twice.
    Returns the replacement spec now stored in the registry.
    """
    import dataclasses

    spec = get_solver(name)
    new_spec = dataclasses.replace(spec, batch_fn=batch_fn)
    _REGISTRY[name] = new_spec
    return new_spec


def unregister_solver(name: str) -> None:
    """Remove a registration (testing hook)."""
    _REGISTRY.pop(name, None)


def _ensure_builtins() -> None:
    """Import the modules whose import side effect registers the built-ins."""
    # Local import to avoid a cycle: builtins imports solver modules, which
    # import this registry.
    from repro.engine import _load_builtins

    _load_builtins()


def get_solver(name: str) -> SolverSpec:
    """Resolve ``name`` to its :class:`SolverSpec` (``ValueError`` if unknown)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_solvers(kind: str | None = None) -> list[SolverSpec]:
    """All registered specs in registration order, optionally one ``kind``."""
    _ensure_builtins()
    specs = list(_REGISTRY.values())
    if kind is not None:
        specs = [s for s in specs if s.kind == kind]
    return specs


class RegistryView(Mapping[str, SolverSpec]):
    """A live, read-only name→spec mapping over one registry ``kind``.

    ``repro.assign.heuristics.HEURISTICS`` is such a view: iteration
    follows registration order (the paper's legend order), lookups resolve
    through the global registry, and there is no second dispatch table to
    drift out of sync.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind

    def __getitem__(self, name: str) -> SolverSpec:
        _ensure_builtins()
        spec = _REGISTRY.get(name)
        if spec is None or spec.kind != self._kind:
            raise KeyError(name)
        return spec

    def __iter__(self) -> Iterator[str]:
        return (spec.name for spec in list_solvers(kind=self._kind))

    def __len__(self) -> int:
        return len(list_solvers(kind=self._kind))


def solver_table(kind: str | None = None) -> str:
    """The registry as an aligned text table (CLI ``aart solvers``, docs).

    ``kind`` filters to one registry kind (``aart solvers --kind paper``);
    the ``batch`` column marks solvers with a trial-batched execution path
    (an attached :attr:`SolverSpec.batch_fn`).
    """
    if kind is not None and kind not in SOLVER_KINDS:
        raise ValueError(
            f"kind must be one of {', '.join(map(repr, SOLVER_KINDS))}, got {kind!r}"
        )
    rows = [("name", "kind", "ratio", "reclaim", "batch", "complexity", "description")]
    for spec in list_solvers(kind=kind):
        rows.append(
            (
                spec.name,
                spec.kind,
                f"{spec.ratio:.4f}" if spec.ratio is not None else "-",
                "yes" if spec.reclaim else "no",
                "yes" if spec.supports_batch else "no",
                spec.complexity or "-",
                spec.description,
            )
        )
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
