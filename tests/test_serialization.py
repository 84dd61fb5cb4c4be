"""JSON round-trips for problems, utilities, assignments and scheduler state."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import CAP, NONFINITE_SPLINES, utility_lists
from repro.core.problem import AAProblem, Assignment
from repro.extensions.online import OnlineScheduler
from repro.serialization import (
    assignment_from_dict,
    load_assignment,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_assignment,
    save_problem,
    scheduler_state_from_dict,
    scheduler_state_to_dict,
    utility_from_dict,
    utility_to_dict,
)
from repro.service.api import request_from_dict
from repro.utility.batch import QuadSplineBatch


def test_problem_roundtrip_mixed(mixed_utilities, tmp_path):
    problem = AAProblem(mixed_utilities, n_servers=3, capacity=10.0)
    path = tmp_path / "p.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.n_servers == 3
    assert loaded.capacity == 10.0
    xs = np.linspace(0, 10, 21)
    for orig, new in zip(problem.utilities.functions(), loaded.utilities.functions()):
        assert np.allclose(orig.value(xs), new.value(xs))


def test_problem_roundtrip_quadspline_batch(tmp_path):
    batch = QuadSplineBatch([1.0, 2.0], [0.5, 1.5], 100.0)
    problem = AAProblem(batch, n_servers=2, capacity=100.0)
    path = tmp_path / "q.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    xs = np.linspace(0, 100, 11)
    for orig, new in zip(batch.functions(), loaded.utilities.functions()):
        assert np.allclose(orig.value(xs), new.value(xs))


def test_problem_dict_is_json_serializable(small_problem):
    text = json.dumps(problem_to_dict(small_problem))
    assert "aart-problem/1" in text


def test_problem_rejects_wrong_format():
    with pytest.raises(ValueError, match="aart-problem"):
        problem_from_dict({"format": "something-else"})


def test_utility_unknown_type_rejected():
    data = {
        "format": "aart-problem/1",
        "n_servers": 1,
        "capacity": 1.0,
        "utilities": [{"type": "mystery"}],
    }
    with pytest.raises(ValueError, match="unknown utility type"):
        problem_from_dict(data)


@pytest.mark.parametrize("v, w, cap", NONFINITE_SPLINES)
def test_utility_codec_rejects_nonfinite_quadspline(v, w, cap):
    """The decoder a submitted thread goes through refuses a spline whose
    knot slopes are not finite floats."""
    utility = {"type": "quadspline", "v": v, "w": w, "cap": cap}
    with pytest.raises(ValueError):
        utility_from_dict(utility)
    with pytest.raises(ValueError):
        request_from_dict({"op": "submit", "thread_id": "t", "utility": utility})


def test_utility_missing_type_rejected():
    data = {
        "format": "aart-problem/1",
        "n_servers": 1,
        "capacity": 1.0,
        "utilities": [{"slope": 1.0}],
    }
    with pytest.raises(ValueError, match="missing 'type'"):
        problem_from_dict(data)


def test_assignment_roundtrip(tmp_path):
    a = Assignment(servers=[0, 1, 0], allocations=[1.5, 2.0, 0.0])
    path = tmp_path / "a.json"
    save_assignment(a, path)
    b = load_assignment(path)
    assert np.array_equal(a.servers, b.servers)
    assert np.allclose(a.allocations, b.allocations)


def test_assignment_rejects_wrong_format():
    with pytest.raises(ValueError, match="aart-assignment"):
        assignment_from_dict({"format": "nope", "servers": [], "allocations": []})


# -- scalar utility codec -----------------------------------------------------


def test_utility_codec_roundtrip(mixed_utilities):
    xs = np.linspace(0, 10, 21)
    for f in mixed_utilities:
        back = utility_from_dict(json.loads(json.dumps(utility_to_dict(f))))
        assert np.allclose(back.value(xs), f.value(xs))


# -- online scheduler live state ----------------------------------------------


def _churned_scheduler(utilities, n_servers=3, migration_cost=0.05):
    s = OnlineScheduler(n_servers, CAP, migration_cost=migration_cost)
    for k, f in enumerate(utilities):
        s.add_thread(f"t{k}", f)
    for k in range(0, len(utilities), 3):
        s.remove_thread(f"t{k}")
    s.rebalance()
    return s


def test_scheduler_state_roundtrip_bit_identical():
    from repro.utility.functions import LogUtility, SaturatingUtility

    s = _churned_scheduler(
        [LogUtility(1.0 + k, 1.0, CAP) for k in range(4)]
        + [SaturatingUtility(2.0, 1.0 + k, CAP) for k in range(3)]
    )
    d = scheduler_state_to_dict(s)
    restored = scheduler_state_from_dict(json.loads(json.dumps(d)))
    assert scheduler_state_to_dict(restored) == d
    assert restored.thread_ids == s.thread_ids
    assert restored.total_migrations == s.total_migrations
    a, b = s.assignment(), restored.assignment()
    assert np.array_equal(a.servers, b.servers)
    assert np.array_equal(a.allocations, b.allocations)
    assert restored.total_utility() == s.total_utility()


def test_scheduler_state_rejects_wrong_format():
    with pytest.raises(ValueError, match="aart-scheduler"):
        scheduler_state_from_dict({"format": "aart-problem/1"})


def test_scheduler_state_empty_roundtrip():
    s = OnlineScheduler(2, CAP)
    restored = scheduler_state_from_dict(scheduler_state_to_dict(s))
    assert restored.thread_ids == []
    assert restored.n_servers == 2
    assert restored.capacity == CAP


@settings(max_examples=25, deadline=None)
@given(utility_lists(min_size=1, max_size=6), st.integers(min_value=1, max_value=3))
def test_scheduler_state_roundtrip_hypothesis(utilities, n_servers):
    """Any churned scheduler's state survives a JSON round trip bit-identically."""
    s = OnlineScheduler(n_servers, CAP)
    for k, f in enumerate(utilities):
        s.add_thread(f"t{k}", f)
    if len(utilities) > 1:
        s.remove_thread("t0")
    d = scheduler_state_to_dict(s)
    restored = scheduler_state_from_dict(json.loads(json.dumps(d)))
    assert scheduler_state_to_dict(restored) == d
    a, b = s.assignment(), restored.assignment()
    assert np.array_equal(a.servers, b.servers)
    assert np.array_equal(a.allocations, b.allocations)


def test_roundtrip_preserves_solution_value(small_problem, tmp_path):
    from repro.core.solve import solve

    sol = solve(small_problem)
    p_path, a_path = tmp_path / "p.json", tmp_path / "a.json"
    save_problem(small_problem, p_path)
    save_assignment(sol.assignment, a_path)
    problem2 = load_problem(p_path)
    assignment2 = load_assignment(a_path)
    assignment2.validate(problem2)
    assert assignment2.total_utility(problem2) == pytest.approx(
        sol.total_utility, rel=1e-12
    )
