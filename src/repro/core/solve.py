"""High-level solver facade with a posteriori approximation certificates.

Since the unified solver engine landed, this module holds no dispatch
table of its own: ``solve()`` resolves its ``algorithm`` argument through
the :mod:`repro.engine` registry, so any registered solver — the paper
algorithms, the Section VII heuristics, extension solvers — can produce a
certified :class:`Solution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.linearize import Linearization, linearize
from repro.core.postprocess import reclaim as _reclaim
from repro.core.problem import ALPHA, AAProblem, Assignment
from repro.engine.registry import get_solver, list_solvers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import SolveContext


@dataclass(frozen=True)
class Solution:
    """A solved AA instance plus quality certificates.

    Attributes
    ----------
    assignment:
        The feasible thread→(server, allocation) mapping.
    total_utility:
        ``F``: the concave utility actually earned.
    super_optimal_utility:
        ``F̂``: the single-pool upper bound on the optimum (Lemma V.2).
    linearization:
        The shared precomputation (ĉ, tops, slopes) behind both.
    algorithm:
        The registry name of the solver that produced the assignment
        (``"alg1"`` / ``"alg2"`` / any registered name).
    """

    assignment: Assignment
    total_utility: float
    super_optimal_utility: float
    linearization: Linearization
    algorithm: str

    @property
    def certified_ratio(self) -> float:
        """``F / F̂`` — a *proven* lower bound on ``F / F*`` for this instance.

        Theorems V.16/VI.1 guarantee this is at least ``ALPHA ≈ 0.828``
        for the paper algorithms; in the paper's experiments it averages
        above 0.99.
        """
        if self.super_optimal_utility == 0.0:
            return 1.0
        return self.total_utility / self.super_optimal_utility

    @property
    def meets_guarantee(self) -> bool:
        """Whether the run achieved the paper's worst-case bound (it must)."""
        return self.certified_ratio >= ALPHA - 1e-9


def solve(
    problem: AAProblem,
    algorithm: str = "alg2",
    lin: Linearization | None = None,
    reclaim: bool = True,
    ctx: "SolveContext | None" = None,
) -> Solution:
    """Solve an AA instance with a registered solver.

    Parameters
    ----------
    problem:
        The instance to solve.
    algorithm:
        A solver name from the :mod:`repro.engine` registry —
        ``"alg2"`` (default, fast) or ``"alg1"`` (the O(mn²) variant) for
        the paper's guaranteed algorithms; heuristic and extension names
        work too and still come back with a per-instance certificate.
    lin:
        Optional shared linearization (see :func:`~repro.core.linearize.linearize`).
    reclaim:
        Apply the :mod:`~repro.core.postprocess` reclamation pass (default):
        re-water-fill each server's capacity among its assigned threads.
        Never decreases utility, preserves the α guarantee; disable for the
        verbatim paper algorithm.  Every server's price search starts at
        the linearization's clearing price ``λ*``.  Only applied to solvers whose registry
        spec declares reclamation applicable (the raw heuristics opt out).
    ctx:
        Optional :class:`~repro.engine.SolveContext` carrying the RNG,
        deadline, counters, any attached telemetry and the shared
        linearization cache.

    Returns
    -------
    Solution
        Feasible assignment with its utility and certified ratio; the
        assignment is validated before returning.
    """
    try:
        spec = get_solver(algorithm)
    except ValueError:
        names = sorted(s.name for s in list_solvers())
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {names}"
        ) from None
    if ctx is None:
        if lin is None:
            lin = linearize(problem)
        assignment = spec.run(problem, lin=lin, ctx=None, seed=None)
        if reclaim and spec.reclaim:
            assignment = _reclaim(problem, assignment, ctx=None, start=lin.price)
    else:
        # One root span covers linearization, the solver and the
        # reclamation pass, so they trace as children of solve.<name>.
        with ctx.solve_span(spec.name):
            if lin is None:
                lin = ctx.linearization(problem)
            assignment = spec.run(problem, lin=lin, ctx=ctx, seed=ctx.rng)
            if reclaim and spec.reclaim:
                assignment = _reclaim(problem, assignment, ctx=ctx, start=lin.price)
    assignment.validate(problem)
    return Solution(
        assignment=assignment,
        total_utility=assignment.total_utility(problem),
        super_optimal_utility=lin.super_optimal_utility,
        linearization=lin,
        algorithm=algorithm,
    )
