"""JSON (de)serialization of problems, assignments and utilities.

Lets users describe AA instances in plain JSON files (consumed by the
``aart`` CLI) and persist solver output.  Every closed-form utility family
round-trips through a small type registry; piecewise-linear utilities and
the paper's quadratic splines serialize their knots/anchors.

Format (version 1)::

    {
      "format": "aart-problem/1",
      "n_servers": 2,
      "capacity": 100.0,
      "utilities": [
        {"type": "log", "coeff": 2.0, "scale": 10.0, "cap": 100.0},
        {"type": "power", "coeff": 1.0, "beta": 0.5, "cap": 100.0},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.problem import AAProblem, Assignment
from repro.utility.base import UtilityFunction
from repro.utility.functions import (
    CappedLinearUtility,
    LinearUtility,
    LogUtility,
    PiecewiseLinearUtility,
    PowerUtility,
    SaturatingUtility,
    ZeroUtility,
)
from repro.utility.quadspline import ConcaveQuadSpline

PROBLEM_FORMAT = "aart-problem/1"
ASSIGNMENT_FORMAT = "aart-assignment/1"
SCHEDULER_FORMAT = "aart-scheduler/1"


def _encode_utility(f: UtilityFunction) -> dict[str, Any]:
    if isinstance(f, ZeroUtility):
        return {"type": "zero", "cap": f.cap}
    if isinstance(f, CappedLinearUtility):
        return {
            "type": "capped_linear",
            "slope": f.slope,
            "breakpoint": f.breakpoint,
            "cap": f.cap,
        }
    if isinstance(f, LinearUtility):
        return {"type": "linear", "slope": f.slope, "cap": f.cap}
    if isinstance(f, PowerUtility):
        return {"type": "power", "coeff": f.coeff, "beta": f.beta, "cap": f.cap}
    if isinstance(f, LogUtility):
        return {"type": "log", "coeff": f.coeff, "scale": f.scale, "cap": f.cap}
    if isinstance(f, SaturatingUtility):
        return {"type": "saturating", "vmax": f.vmax, "k": f.k, "cap": f.cap}
    if isinstance(f, PiecewiseLinearUtility):
        return {
            "type": "piecewise_linear",
            "xs": f.xs.tolist(),
            "ys": f.ys.tolist(),
            "cap": f.cap,
        }
    if isinstance(f, ConcaveQuadSpline):
        return {
            "type": "quadspline",
            "v": f.v,
            "w": f.w,
            "cap": f.cap,
            "xm": f.xm,
        }
    raise TypeError(f"cannot serialize utility of type {type(f).__name__}")


_DECODERS = {
    "zero": lambda d: ZeroUtility(d["cap"]),
    "linear": lambda d: LinearUtility(d["slope"], d["cap"]),
    "capped_linear": lambda d: CappedLinearUtility(
        d["slope"], d["breakpoint"], d["cap"]
    ),
    "power": lambda d: PowerUtility(d["coeff"], d["beta"], d["cap"]),
    "log": lambda d: LogUtility(d["coeff"], d["scale"], d["cap"]),
    "saturating": lambda d: SaturatingUtility(d["vmax"], d["k"], d["cap"]),
    "piecewise_linear": lambda d: PiecewiseLinearUtility(
        d["xs"], d["ys"], cap=d.get("cap")
    ),
    "quadspline": lambda d: ConcaveQuadSpline(
        d["v"], d["w"], d["cap"], xm=d.get("xm")
    ),
}


def _decode_utility(d: dict[str, Any]) -> UtilityFunction:
    try:
        kind = d["type"]
    except (TypeError, KeyError):
        raise ValueError(f"utility entry missing 'type': {d!r}") from None
    try:
        decoder = _DECODERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown utility type {kind!r}; known: {sorted(_DECODERS)}"
        ) from None
    return decoder(d)


def utility_to_dict(f: UtilityFunction) -> dict[str, Any]:
    """Serialize one scalar utility (public name for the type-registry codec)."""
    return _encode_utility(f)


def utility_from_dict(d: dict[str, Any]) -> UtilityFunction:
    """Deserialize one scalar utility; raises ``ValueError`` on unknown types."""
    return _decode_utility(d)


def problem_to_dict(problem: AAProblem) -> dict[str, Any]:
    """Serialize an AA instance (requires materializable scalar utilities)."""
    return {
        "format": PROBLEM_FORMAT,
        "n_servers": problem.n_servers,
        "capacity": problem.capacity,
        "utilities": [_encode_utility(f) for f in problem.utilities.functions()],
    }


def problem_from_dict(data: dict[str, Any]) -> AAProblem:
    """Deserialize an AA instance; validates the format marker."""
    if data.get("format") != PROBLEM_FORMAT:
        raise ValueError(
            f"not an {PROBLEM_FORMAT} document (format={data.get('format')!r})"
        )
    utilities = [_decode_utility(d) for d in data["utilities"]]
    return AAProblem(utilities, n_servers=data["n_servers"], capacity=data["capacity"])


def assignment_to_dict(assignment: Assignment) -> dict[str, Any]:
    return {
        "format": ASSIGNMENT_FORMAT,
        "servers": assignment.servers.tolist(),
        "allocations": assignment.allocations.tolist(),
    }


def assignment_from_dict(data: dict[str, Any]) -> Assignment:
    if data.get("format") != ASSIGNMENT_FORMAT:
        raise ValueError(
            f"not an {ASSIGNMENT_FORMAT} document (format={data.get('format')!r})"
        )
    return Assignment(
        servers=np.asarray(data["servers"], dtype=np.int64),
        allocations=np.asarray(data["allocations"], dtype=float),
    )


def scheduler_state_to_dict(scheduler) -> dict[str, Any]:
    """Serialize an :class:`~repro.extensions.online.OnlineScheduler`'s live state.

    Captures everything needed to resume the scheduler exactly where it
    was: configuration, resident threads with their utilities, and the
    current (server, allocation) of every thread in insertion order.  For
    an :class:`~repro.extensions.online.AdaptiveScheduler` the *current*
    concave fits are saved (they are plain piecewise-linear utilities);
    raw measurement buffers are not, so a restored scheduler re-learns
    from fresh observations.
    """
    return {
        "format": SCHEDULER_FORMAT,
        "n_servers": scheduler.n_servers,
        "capacity": scheduler.capacity,
        "migration_cost": scheduler.migration_cost,
        "solver": scheduler.solver,
        "total_migrations": scheduler.total_migrations,
        "threads": [
            {
                "id": t,
                "server": server,
                "allocation": allocation,
                "utility": _encode_utility(f),
            }
            for t, f, server, allocation in scheduler.residents()
        ],
    }


def scheduler_state_from_dict(data: dict[str, Any]):
    """Rebuild an :class:`~repro.extensions.online.OnlineScheduler` from its dict.

    The restored scheduler is bit-identical to the saved one:
    ``scheduler_state_to_dict(scheduler_state_from_dict(d)) == d``.
    """
    from repro.extensions.online import OnlineScheduler

    if data.get("format") != SCHEDULER_FORMAT:
        raise ValueError(
            f"not an {SCHEDULER_FORMAT} document (format={data.get('format')!r})"
        )
    scheduler = OnlineScheduler(
        n_servers=data["n_servers"],
        capacity=data["capacity"],
        migration_cost=data.get("migration_cost", 0.0),
        # Snapshots written before the solver field default to alg2 — the
        # only replan algorithm older schedulers could have used.
        solver=data.get("solver", "alg2"),
    )
    for entry in data["threads"]:
        scheduler.restore_thread(
            entry["id"],
            _decode_utility(entry["utility"]),
            server=entry["server"],
            allocation=entry["allocation"],
        )
    scheduler.total_migrations = int(data.get("total_migrations", 0))
    return scheduler


def save_problem(problem: AAProblem, path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(problem), indent=2))


def load_problem(path) -> AAProblem:
    return problem_from_dict(json.loads(Path(path).read_text()))


def save_assignment(assignment: Assignment, path) -> None:
    Path(path).write_text(json.dumps(assignment_to_dict(assignment), indent=2))


def load_assignment(path) -> Assignment:
    return assignment_from_dict(json.loads(Path(path).read_text()))
