"""Spans recorded around calls into the repro layers, from outside ``src/``.

The traced pass replaces a layer's public function *where the caller looks
it up* with a timing wrapper: ``water_fill`` as bound in
``repro.extensions.online``, ``linearize_batch`` as bound in
``repro.experiments.harness``, the batch kernels as the solver registry
hands them out.  Modules are resolved through ``importlib`` (the package
re-exports shadow several of them: ``repro.core.linearize`` is also a
function attribute of ``repro.core``).  Nothing inside ``src/`` changes.

Spans stay in memory as tuples and are written out when the run ends.  A
span's *self* time is its duration minus the durations of the spans that
ran inside it on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path

#: The span the benchmark opens around each operation it times.
OP = "bench.op"

#: (module, attribute path, span name): layer functions patched where they
#: are looked up.  A dotted attribute path names a method on a class.
PATCHES = (
    ("repro.experiments.harness", "make_problem", "workloads.generate"),
    ("repro.experiments.harness", "paper_utilities_batch", "workloads.generate"),
    ("repro.experiments.harness", "linearize_batch", "core.linearize_batch"),
    ("repro.experiments.harness", "reclaim_batch", "core.reclaim_batch"),
    # price discovery imports reclaim_batch from its module at call time
    ("repro.core.batch", "reclaim_batch", "core.reclaim_batch"),
    ("repro.core.batch", "water_fill_batch", "allocation.water_fill_batch"),
    # LinearizationCache.get imports linearize from its module at call time
    ("repro.core.linearize", "linearize", "core.linearize"),
    ("repro.core.solve", "linearize", "core.linearize"),
    ("repro.core.linearize", "water_fill", "allocation.water_fill"),
    ("repro.extensions.online", "water_fill", "allocation.water_fill"),
    # the registered "alg2" and "price_discovery" lambdas look these up
    ("repro.core.algorithm2", "algorithm2", "core.algorithm2"),
    ("repro.allocation.prices", "price_discovery", "allocation.price_discovery"),
    ("repro.core.solve", "_reclaim", "core.reclaim"),
    ("repro.extensions.online", "solve", "core.solve"),
    ("repro.extensions.online", "OnlineScheduler.placement_gain",
     "extensions.online.placement_gain"),
    ("repro.extensions.online", "OnlineScheduler.total_utility",
     "extensions.online.total_utility"),
    ("repro.extensions.online", "OnlineScheduler._problem", "extensions.online.problem"),
    ("repro.service.server", "AllocationService.process", "service.server.process"),
    ("repro.observability.metrics", "MetricsRegistry.counter", "observability.metrics"),
    ("repro.observability.metrics", "MetricsRegistry.gauge", "observability.metrics"),
    ("repro.observability.metrics", "MetricsRegistry.histogram", "observability.metrics"),
    ("repro.observability.metrics", "Counter.inc", "observability.metrics"),
    ("repro.observability.metrics", "Gauge.set", "observability.metrics"),
    ("repro.observability.metrics", "Histogram.observe", "observability.metrics"),
    ("repro.service.transport", "request_to_dict", "service.api.codec"),
    ("repro.service.transport", "request_from_dict", "service.api.codec"),
    ("repro.service.transport", "response_to_dict", "service.api.codec"),
    ("repro.service.transport", "response_from_dict", "service.api.codec"),
    ("repro.service.transport", "InProcessTransport.request", "service.transport.inproc"),
    ("repro.service.fleet.coordinator", "FleetCoordinator.process", "service.fleet.process"),
    ("repro.service.fleet.coordinator", "compose_certificates", "service.fleet.certify"),
    ("repro.service.fleet.router", "ShardRouter.route", "service.fleet.route"),
    ("repro.service.fleet.coordinator", "FleetCoordinator.rebalance",
     "service.fleet.rebalance"),
)

#: Patches whose span also records a value computed from the call's result.
VALUED_PATCHES = (
    # responses out of one coalesced step = the step's batch size
    ("repro.service.server", "AllocationService.step", "service.server.step", len),
    # bytes put on the wire, both directions
    ("repro.service.transport", "_encode_lines", "service.transport.encode", len),
    # 1 when the re-solve changed the assignment, else 0
    ("repro.extensions.online", "OnlineScheduler.rebalance", "extensions.online.rebalance",
     lambda report: float(
         report.migrations > 0 or report.utility_after != report.utility_before
     )),
)

#: Registry solvers whose trial-batched kernel is wrapped as handed out.
BATCH_FNS = (("alg2", "core.algorithm2_batch"),)
HEURISTICS_SPAN = "assign.heuristics_batch"


class SpanLog:
    """Thread-aware in-memory span recorder.

    ``op`` is the index of the operation in flight; the benchmark sets it
    before each call, and spans recorded on server threads during that
    call carry it too (the caller blocks until the call returns).
    """

    def __init__(self) -> None:
        #: (name, op, thread, start, duration, self, value) per span.
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, value=None):
        """``fn`` wrapped in a span named ``name``.

        ``value(result)`` (optional) is stored with the span.
        """
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = log._stack()
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
            log.spans.append(
                (name, log.op, threading.get_ident(), t0, duration,
                 duration - children[0], value(result) if value is not None else None)
            )
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()

    # -- patching ------------------------------------------------------------

    def patch(self, module: str, path: str, name: str, value=None) -> None:
        """Replace ``module.path`` (``attr`` or ``Class.method``) by a wrapper."""
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, value))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_batch_fn(self, solver: str, name: str) -> None:
        """Wrap a registry solver's ``batch_fn`` as the registry hands it out."""
        from repro.engine import attach_batch_fn, get_solver

        original = get_solver(solver).batch_fn
        attach_batch_fn(solver, self.wrap(name, original))
        self._undo.append(lambda: attach_batch_fn(solver, original))

    def install(self) -> None:
        """Wrap every layer boundary this benchmark measures."""
        from repro.engine import list_solvers

        for module, path, name in PATCHES:
            self.patch(module, path, name)
        for module, path, name, value in VALUED_PATCHES:
            self.patch(module, path, name, value)
        for solver, name in BATCH_FNS:
            self.patch_batch_fn(solver, name)
        for spec in list_solvers(kind="heuristic"):
            self.patch_batch_fn(spec.name, HEURISTICS_SPAN)

    def uninstall(self) -> None:
        """Put every patched name back (reverse order of installation)."""
        while self._undo:
            self._undo.pop()()

    # -- reduction ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name over spans inside an op: calls, self s, duration s, value sum."""
        out: dict[str, dict[str, float]] = {}
        for name, op, _thread, _t0, duration, self_s, value in self.spans:
            if op is None:
                continue
            acc = out.setdefault(name, {"calls": 0, "self_s": 0.0, "dur_s": 0.0, "value": 0.0})
            acc["calls"] += 1
            acc["self_s"] += self_s
            acc["dur_s"] += duration
            if value is not None:
                acc["value"] += value
        return out

    def values(self, name: str) -> list:
        """The recorded values of ``name`` spans inside an op."""
        return [s[6] for s in self.spans if s[0] == name and s[1] is not None]

    def per_op(self, name: str) -> dict[int, float]:
        """Summed duration of ``name`` spans per op index."""
        out: dict[int, float] = {}
        for span_name, op, _thread, _t0, duration, _self, _value in self.spans:
            if span_name == name and op is not None:
                out[op] = out.get(op, 0.0) + duration
        return out

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (start relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with path.open("w") as fh:
            for name, op, thread, t0, duration, self_s, value in self.spans:
                fh.write(json.dumps({
                    "name": name, "op": op, "thread": thread, "start_s": t0 - origin,
                    "dur_s": duration, "self_s": self_s, "value": value,
                }) + "\n")
