"""Registry round-trip: every built-in solver resolves, runs and validates."""

import numpy as np
import pytest

from repro.core.problem import AAProblem
from repro.core.solve import solve
from repro.core.tightness import tightness_instance
from repro.engine import (
    RegistryView,
    get_solver,
    list_solvers,
    register_solver,
    solver_table,
    unregister_solver,
)
from repro.utility.functions import LogUtility

BUILTINS = {
    "alg1": "paper",
    "alg2": "paper",
    "UU": "heuristic",
    "UR": "heuristic",
    "RU": "heuristic",
    "RR": "heuristic",
    "localsearch": "extension",
    "weighted": "extension",
    "alg2_hetero": "extension",
}


def _problem(n=6, m=2, cap=100.0):
    fns = [LogUtility(coeff=float(k + 1), scale=10.0, cap=cap) for k in range(n)]
    return AAProblem(fns, n_servers=m, capacity=cap)


def test_every_builtin_registered_with_expected_kind():
    specs = {s.name: s for s in list_solvers()}
    for name, kind in BUILTINS.items():
        assert name in specs, f"builtin {name} missing from registry"
        assert specs[name].kind == kind
        assert get_solver(name) is specs[name]


@pytest.mark.parametrize(
    "name", [n for n in BUILTINS if n != "alg2_hetero"]
)
def test_every_builtin_produces_feasible_assignment(name):
    p = _problem()
    sol = solve(p, name, seed=0)
    sol.assignment.validate(p)
    assert sol.algorithm == name
    assert sol.linearization is not None


def test_paper_solvers_meet_guarantee_on_tightness_instance():
    p = tightness_instance()
    for name in ("alg1", "alg2"):
        assert solve(p, name).total_utility == pytest.approx(2.5)


def test_unknown_solver_raises_with_names():
    with pytest.raises(ValueError, match="unknown solver 'nope'"):
        get_solver("nope")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_solver("alg2", lambda *a: None, kind="paper")


def test_replace_and_unregister_roundtrip():
    marker = lambda problem, lin, ctx, seed: "stub"  # noqa: E731
    spec = register_solver("_test_stub", marker, kind="extension")
    try:
        assert get_solver("_test_stub") is spec
        spec2 = register_solver("_test_stub", marker, kind="extension", replace=True)
        assert get_solver("_test_stub") is spec2
    finally:
        unregister_solver("_test_stub")
    with pytest.raises(ValueError):
        get_solver("_test_stub")


def test_bad_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        register_solver("_bad_kind", lambda *a: None, kind="other")


def test_registry_view_is_live_and_filtered():
    view = RegistryView("heuristic")
    assert list(view) == ["UU", "UR", "RU", "RR"]
    assert len(view) == 4
    assert "UU" in view
    assert "alg2" not in view  # wrong kind is hidden
    with pytest.raises(KeyError):
        view["alg2"]
    # Values are callable with the legacy heuristic signature.
    p = _problem()
    a = view["RR"](p, seed=np.random.default_rng(3))
    a.validate(p)


def test_solver_table_lists_everyone():
    table = solver_table()
    for name in BUILTINS:
        assert name in table
    assert "0.8284" in table  # ALPHA rendered for the paper algorithms


def test_metadata_sanity():
    alg2 = get_solver("alg2")
    assert alg2.reclaim and alg2.uses_linearization and not alg2.randomized
    rr = get_solver("RR")
    assert rr.randomized and not rr.reclaim and not rr.uses_linearization
    assert get_solver("alg1").ratio == pytest.approx(2 * (np.sqrt(2) - 1))
    assert get_solver("alg2_hetero").ratio is None
