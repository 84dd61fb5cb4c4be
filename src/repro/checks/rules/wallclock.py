"""AART001 — wall-clock reads only in the timing/observability layers.

The repro's measurements (span trees, duration histograms, benchmarks)
are meaningful only because every duration flows through
:class:`repro.utils.timing.Timer` and the instrumented
:class:`~repro.engine.context.SolveContext`.  A stray ``time.time()`` in a
solver produces a timing that no attached tracer, histogram or sink ever
sees, and makes service latency events lie.  ``time.monotonic()`` is
deliberately *not* banned: deadlines and coalescing windows legitimately
read the monotonic clock for control flow (never for reporting).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checks.base import Finding, ModuleInfo, Project, Rule, register_rule

#: ``module attr`` pairs whose *call* constitutes a wall-clock read.
_BANNED_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: Bare names (``from time import perf_counter``) that are equally banned.
_BANNED_NAMES = {
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "time_ns",
}


def _call_target(node: ast.Call) -> tuple[str, str] | None:
    """``(head, attr)`` for ``head.attr(...)`` / ``x.head.attr(...)`` calls."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(
        func.value, (ast.Name, ast.Attribute)
    ):
        head = func.value
        while isinstance(head, ast.Attribute):
            head = head.value
        tail = func.value
        # For datetime.datetime.now() the relevant pair is ("datetime", "now").
        if isinstance(tail, ast.Attribute):
            return (tail.attr, func.attr)
        if isinstance(head, ast.Name):
            return (head.id, func.attr)
    return None


@register_rule
class WallClockRule(Rule):
    code = "AART001"
    name = "no-raw-wall-clock"
    rationale = (
        "Durations must flow through Timer/SolveContext spans so they reach "
        "whatever telemetry is attached (span tree, duration histogram, "
        "event sink); raw time.time()/perf_counter()/datetime.now() reads "
        "bypass the observability layer."
    )

    def _allowed(self, mod: ModuleInfo) -> bool:
        return (
            mod.is_module("utils", "timing")
            or mod.in_package("observability")
            # The checks framework itself and test code never feed spans.
            or mod.in_package("checks")
        )

    def check(self, mod: ModuleInfo, project: Project) -> Iterator[Finding]:
        if self._allowed(mod):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                target = _call_target(node)
                if target in _BANNED_CALLS:
                    yield self.finding(
                        mod,
                        node,
                        f"wall-clock read {target[0]}.{target[1]}() outside "
                        "utils/timing.py and observability/ — route timing "
                        "through Timer or SolveContext spans",
                    )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _BANNED_NAMES
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"wall-clock read {node.func.id}() outside "
                        "utils/timing.py and observability/ — route timing "
                        "through Timer or SolveContext spans",
                    )
