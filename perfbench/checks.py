"""Correctness checks on workload outputs.

Each check takes plain data and returns a list of violations; an empty
list means the output is correct.  They are separate from the workloads so
that tests can hand them corrupted results.
"""

from __future__ import annotations

import numpy as np

#: Relative slack for floating-point comparisons against C and the bound.
RTOL = 1e-9


def check_trial_bounds(names, utilities: np.ndarray, alpha: float, label: str) -> list[str]:
    """Every trial must have ``alpha * SO <= ALG2 <= SO``."""
    so = utilities[:, names.index("SO")]
    alg2 = utilities[:, names.index("ALG2")]
    bad_low = np.nonzero(alg2 < alpha * so * (1 - RTOL))[0]
    bad_high = np.nonzero(alg2 > so * (1 + RTOL))[0]
    out = []
    if bad_low.size:
        out.append(f"{label}: {bad_low.size} trials below alpha*SO (first trial {bad_low[0]})")
    if bad_high.size:
        out.append(f"{label}: {bad_high.size} trials above SO (first trial {bad_high[0]})")
    return out


def check_identical(expected: np.ndarray, got: np.ndarray, label: str) -> list[str]:
    """Two utility matrices must agree bit for bit."""
    if expected.shape != got.shape:
        return [f"{label}: shape {got.shape} != {expected.shape}"]
    if not np.array_equal(expected.view(np.uint64), got.view(np.uint64)):
        diff = int(np.count_nonzero(expected != got))
        return [f"{label}: {diff} entries differ"]
    return []


def check_loads(servers, allocations, n_servers: int, capacity: float, label: str) -> list[str]:
    """Every thread on a valid server with a nonnegative grant; loads at most C."""
    servers = np.asarray(servers)
    allocations = np.asarray(allocations, dtype=float)
    out = []
    if servers.size and (servers.min() < 0 or servers.max() >= n_servers):
        out.append(f"{label}: server index outside [0, {n_servers})")
        return out
    if np.any(allocations < 0):
        out.append(f"{label}: negative allocation")
    loads = np.bincount(servers, weights=allocations, minlength=n_servers)
    over = np.nonzero(loads > capacity * (1 + RTOL))[0]
    if over.size:
        out.append(
            f"{label}: server {int(over[0])} load {loads[over[0]]:.9g} exceeds C={capacity}"
        )
    return out


def check_responses(responses, label: str) -> list[str]:
    """Every response must be ok."""
    failed = [r for r in responses if not r.ok]
    if not failed:
        return []
    return [f"{label}: {len(failed)} of {len(responses)} responses failed "
            f"(first: {failed[0].op}: {failed[0].error})"]


def check_ratio(ratio, alpha: float, label: str) -> list[str]:
    """A certified ratio must exist and be at least alpha."""
    if ratio is None or not ratio >= alpha * (1 - RTOL):
        return [f"{label}: certified ratio {ratio!r} below alpha={alpha:.6f}"]
    return []


def check_count(expected: int, got: int, label: str) -> list[str]:
    if expected != got:
        return [f"{label}: {got} residents, the trace implies {expected}"]
    return []
