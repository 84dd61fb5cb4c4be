"""Registry of the paper's figures: one spec per panel, runnable anywhere.

Every panel of Figures 1-3 is a sweep of mean utility ratios at ``m = 8``
servers and ``C = 1000`` (Section VII).  A :class:`FigureSpec` captures the
workload factory and x-axis; :func:`run_figure` executes it and returns the
series in legend order, and :func:`expected_shape_violations` checks the
qualitative claims the paper makes about the panel (used by integration
tests and by ``benchmarks/``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.experiments.harness import SO, SweepPoint, run_sweep
from repro.workloads.generators import (
    Distribution,
    FoldedNormalDistribution,
    PowerLawDistribution,
    TwoPointDistribution,
    UniformDistribution,
)

#: The paper's fixed experiment geometry (Section VII).
N_SERVERS = 8
CAPACITY = 1000.0

#: β sweep used by the vs-β panels (1 … 15).
BETA_SWEEP = tuple(range(1, 16))

#: Heuristic series in the paper's legend order.
HEURISTIC_SERIES = ("UU", "UR", "RU", "RR")


@dataclass(frozen=True)
class FigureSpec:
    """One panel of the paper's evaluation.

    ``factory(value)`` returns ``(distribution, beta)`` for each x value —
    β-sweep panels vary β at a fixed distribution; parameter-sweep panels
    vary the distribution at fixed β = 5.
    """

    figure_id: str
    title: str
    x_label: str
    sweep: tuple
    factory: Callable[[float], tuple[Distribution, float]]
    notes: str = ""


def _beta_panel(dist: Distribution):
    return lambda beta: (dist, float(beta))


FIGURES: dict[str, FigureSpec] = {}


def _register(spec: FigureSpec) -> FigureSpec:
    FIGURES[spec.figure_id] = spec
    return spec


FIG1A = _register(
    FigureSpec(
        figure_id="fig1a",
        title="Alg2 vs SO/UU/UR/RU/RR — uniform utilities",
        x_label="beta (threads per server)",
        sweep=BETA_SWEEP,
        factory=_beta_panel(UniformDistribution()),
        notes="Paper: Alg2/SO never below 0.99; heuristic ratios grow with beta.",
    )
)

FIG1B = _register(
    FigureSpec(
        figure_id="fig1b",
        title="Alg2 vs SO/UU/UR/RU/RR — normal(1,1) utilities",
        x_label="beta (threads per server)",
        sweep=BETA_SWEEP,
        factory=_beta_panel(FoldedNormalDistribution(mean=1.0, std=1.0)),
        notes="Same trends as uniform (paper Sec VII-A).",
    )
)

FIG2A = _register(
    FigureSpec(
        figure_id="fig2a",
        title="Alg2 vs heuristics — power law (alpha=2) utilities",
        x_label="beta (threads per server)",
        sweep=BETA_SWEEP,
        factory=_beta_panel(PowerLawDistribution(alpha=2.0)),
        notes=(
            "Paper: degradation of heuristics is faster than uniform/normal; "
            "at beta=15 Alg2 is ~3.9x UU/RU and ~5.7x UR/RR."
        ),
    )
)

FIG2B = _register(
    FigureSpec(
        figure_id="fig2b",
        title="Alg2 vs heuristics — power law, varying alpha (beta=5)",
        x_label="alpha (power-law exponent)",
        sweep=(1.2, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
        factory=lambda alpha: (PowerLawDistribution(alpha=float(alpha)), 5.0),
        notes="Paper: heuristics improve as alpha increases; UU/RU beat UR/RR.",
    )
)

FIG3A = _register(
    FigureSpec(
        figure_id="fig3a",
        title="Alg2 vs heuristics — discrete (gamma=0.85, theta=5)",
        x_label="beta (threads per server)",
        sweep=BETA_SWEEP,
        factory=_beta_panel(TwoPointDistribution(gamma=0.85, theta=5.0)),
        notes="Same trends as the other distributions (paper Sec VII-C).",
    )
)

FIG3B = _register(
    FigureSpec(
        figure_id="fig3b",
        title="Alg2 vs heuristics — discrete, varying gamma (beta=5, theta=5)",
        x_label="gamma (probability of the low value)",
        sweep=(0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95),
        factory=lambda gamma: (TwoPointDistribution(gamma=float(gamma), theta=5.0), 5.0),
        notes=(
            "Paper: Alg2/SO dips to ~0.975 near gamma=0.75; heuristics are "
            "good when gamma is near 0 or 1."
        ),
    )
)

FIG3C = _register(
    FigureSpec(
        figure_id="fig3c",
        title="Alg2 vs heuristics — discrete, varying theta (beta=5, gamma=0.85)",
        x_label="theta (high/low utility ratio)",
        sweep=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
        factory=lambda theta: (TwoPointDistribution(gamma=0.85, theta=float(theta)), 5.0),
        notes="Paper: heuristics degrade as theta grows; Alg2 stays >= 0.99 of SO.",
    )
)


def run_figure(
    figure_id: str,
    trials: int = 100,
    seed: int = 0,
    include_alg1: bool = False,
    include_raw: bool = False,
    interpolator: str = "quadspline",
    ctx=None,
    n_jobs: int | None = 1,
    chunksize: int | None = None,
) -> list[SweepPoint]:
    """Execute a registered panel and return its sweep points.

    ``n_jobs``/``chunksize`` fan each point's trials out over a process
    pool (``aart figure --jobs``); each point routes itself through the
    batch pipeline when it can (see
    :func:`~repro.experiments.harness.run_point_arrays`).  The series are
    bit-identical for any worker count.
    """
    spec = FIGURES[figure_id]
    return run_sweep(
        spec.factory,
        spec.sweep,
        n_servers=N_SERVERS,
        capacity=CAPACITY,
        trials=trials,
        seed=seed,
        include_alg1=include_alg1,
        include_raw=include_raw,
        interpolator=interpolator,
        ctx=ctx,
        n_jobs=n_jobs,
        chunksize=chunksize,
    )


def expected_shape_violations(figure_id: str, points: list[SweepPoint]) -> list[str]:
    """Check a panel's results against the paper's qualitative claims.

    Returns a list of human-readable violations (empty = the shape holds).
    The thresholds are deliberately loose: they encode *shape* (who wins,
    monotone trends, approximate levels), not the authors' absolute numbers.
    """
    violations: list[str] = []
    so = [p.ratios[SO] for p in points]
    heur = {
        h: [p.ratios[h] for p in points]
        for h in HEURISTIC_SERIES
        if all(h in p.ratios for p in points)
    }

    # Universal claims: near-optimality and beating every heuristic.  The
    # discrete (two-point) panels dip hardest against the SO bound — the
    # paper reports 0.975 at the fig3b gamma-dip; SO also overstates OPT.
    floor = 0.96 if figure_id.startswith("fig3") else 0.985
    if min(so) < floor:
        violations.append(
            f"{figure_id}: Alg2/SO fell to {min(so):.4f} (< {floor}); "
            "the paper reports >= ~0.99 (0.975 at the fig3b dip)"
        )
    for h, series in heur.items():
        if min(series) < 0.999:
            violations.append(
                f"{figure_id}: Alg2/{h} dipped below 1 ({min(series):.4f}); "
                "Alg2 must never lose to a heuristic on average"
            )

    def increasing(series, slack=0.05):
        """Noise-robust growth: tail-third mean beats head-third mean."""
        k = max(len(series) // 3, 1)
        head = float(np.mean(series[:k]))
        tail = float(np.mean(series[-k:]))
        return tail >= head * (1 + slack)

    if figure_id in ("fig1a", "fig1b", "fig2a", "fig3a"):
        for h, series in heur.items():
            # Random assignment is penalized hardest at beta=1 (empty
            # servers), so growth for RU/RR is measured from beta=3 on and
            # with a gentler slope: most of RU/RR's loss is the random
            # *allocation*, which is roughly beta-independent.
            base = series if h in ("UU", "UR") else series[2:]
            slack = 0.05 if h in ("UU", "UR") else 0.005
            if not increasing(base, slack=slack):
                violations.append(
                    f"{figure_id}: Alg2/{h} should grow with beta "
                    f"(got {base[0]:.3f} -> {base[-1]:.3f})"
                )
        # UU achieves the optimum at beta = 1 (one thread per server, full C).
        if "UU" in heur and abs(heur["UU"][0] - 1.0) > 1e-6:
            violations.append(
                f"{figure_id}: UU at beta=1 should be optimal (ratio 1), "
                f"got {heur['UU'][0]:.6f}"
            )
        # Allocation matters more than assignment: UU/RU beat UR/RR at high beta.
        if set(HEURISTIC_SERIES) <= set(heur) and not (
            heur["UR"][-1] > heur["UU"][-1] and heur["RR"][-1] > heur["RU"][-1]
        ):
            violations.append(
                f"{figure_id}: at beta=15 the random-allocation heuristics "
                "should trail the uniform-allocation ones"
            )
    if figure_id == "fig2b":
        for h, series in heur.items():
            if not series[0] > series[-1] * 1.02:
                violations.append(
                    f"{figure_id}: Alg2/{h} should shrink as alpha grows "
                    f"(got {series[0]:.3f} -> {series[-1]:.3f})"
                )
    if figure_id == "fig3b":
        for h, series in heur.items():
            ends = min(series[0], series[-1])
            middle = max(series)
            if not middle > ends * 1.02:
                violations.append(
                    f"{figure_id}: Alg2/{h} should peak at intermediate gamma"
                )
    if figure_id == "fig3c":
        for h, series in heur.items():
            if not increasing(series, slack=0.02):
                violations.append(
                    f"{figure_id}: Alg2/{h} should grow with theta "
                    f"(got {series[0]:.3f} -> {series[-1]:.3f})"
                )
    return violations
