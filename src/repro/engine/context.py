"""The instrumented execution context threaded through every solver run.

A :class:`SolveContext` bundles the cross-cutting concerns the paper's
pseudocode leaves implicit but a production allocator cannot: a seeded RNG
(randomized heuristics), a wall-clock deadline (admission control must
answer in bounded time), exact counters, the optional telemetry surfaces
its :meth:`~SolveContext.span` blocks feed (a span tree, a duration
histogram, an event sink), and a shared
:class:`~repro.engine.cache.LinearizationCache` so the expensive
``O(n(log mC)²)`` super-optimal precomputation is done once per instance
no matter how many contenders run on it.

All core entry points (``linearize``, ``water_fill``, ``algorithm1``,
``algorithm2``, ``reclaim``) accept ``ctx=None`` and stay zero-overhead
when no context is supplied; a context with no telemetry attached hands
out one shared no-op span.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.observability import SPAN_SECONDS, Counters, EventSink, MetricsRegistry, Tracer
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.linearize import Linearization
    from repro.core.problem import AAProblem
    from repro.engine.cache import LinearizationCache

#: The span handed out when no telemetry surface is attached.
_NO_SPAN: AbstractContextManager[None] = nullcontext()


class SolveTimeout(TimeoutError):
    """Raised by :meth:`SolveContext.check_deadline` when the budget is spent."""


class SolveContext:
    """Mutable per-run (or per-sweep) execution context.

    Parameters
    ----------
    seed:
        Seeds :attr:`rng`, consumed by randomized solvers resolved through
        the registry.
    budget_s:
        Optional wall-clock budget in seconds; instrumented loops call
        :meth:`check_deadline` and raise :class:`SolveTimeout` once it is
        exhausted.
    sink:
        Optional :class:`~repro.observability.EventSink`; spans and
        counter snapshots are streamed to it as dict events.
    cache:
        Optional shared :class:`~repro.engine.cache.LinearizationCache`;
        :meth:`linearization` consults it before recomputing.
    tracer:
        Optional :class:`~repro.observability.Tracer`; every
        :meth:`span` then also records a node in its parent/child span
        tree (the registry opens a ``solve.<name>`` root per solve).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`;
        :meth:`observe` records histogram observations into it, and
        :meth:`span` feeds per-span duration histograms.  When ``None``
        (the default) both are single-``None``-check no-ops.
    """

    def __init__(
        self,
        seed: SeedLike = None,
        budget_s: float | None = None,
        sink: EventSink | None = None,
        cache: "LinearizationCache | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.rng: np.random.Generator = as_generator(seed)
        self.counters = Counters()
        self.sink = sink
        self.cache = cache
        self.tracer = tracer
        self.metrics = metrics
        self._open_solve: str | None = None
        self.deadline: float | None = None
        if budget_s is not None:
            if budget_s <= 0:
                raise ValueError(f"budget_s must be positive, got {budget_s!r}")
            self.deadline = time.monotonic() + float(budget_s)

    # -- counters / spans ----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters.add(name, n)

    def span(self, name: str) -> AbstractContextManager[None]:
        """Context manager timing a block under ``name``.

        The block feeds whatever is attached: a node in the tracer's
        tree, an observation of the ``SPAN_SECONDS`` histogram and a
        ``{"type": "span", "name": ..., "seconds": ...}`` sink event.
        With none of the three attached it is one shared no-op.
        """
        if self.tracer is None and self.metrics is None and self.sink is None:
            return _NO_SPAN
        return _Span(self, name)

    @contextmanager
    def solve_span(self, solver_name: str) -> Iterator[None]:
        """The per-solve root span, idempotent per solver name.

        Both the ``solve()`` facade and :meth:`SolverSpec.run
        <repro.engine.registry.SolverSpec.run>` open ``solve.<name>``
        around a solve; when the facade already holds it, the registry's
        nested attempt collapses into the existing span.  Without that,
        the nested attempt would add a duplicate tree node and a
        duplicate ``SPAN_SECONDS`` observation for the same solve.
        """
        if self._open_solve == solver_name:
            yield
            return
        previous, self._open_solve = self._open_solve, solver_name
        try:
            with self.span(f"solve.{solver_name}"):
                yield
        finally:
            self._open_solve = previous

    def emit(self, event: dict) -> None:
        """Forward an event dict to the sink, if one is attached."""
        if self.sink is not None:
            self.sink.emit(event)

    def emit_counters(self, **extra: object) -> None:
        """Emit a ``{"type": "counters", ...}`` snapshot event."""
        self.emit({"type": "counters", "counters": self.counters.snapshot(), **extra})

    def emit_trace(self, **extra: object) -> None:
        """Emit the tracer's span tree as a ``{"type": "trace"}`` event.

        No-op without a tracer; ``aart trace --format chrome`` converts
        the emitted events into a Chrome/Perfetto-loadable file.
        """
        if self.tracer is not None:
            self.emit({"type": "trace", **self.tracer.snapshot(), **extra})

    def observe(self, name: str, value: float, help: str = "", **labels: str) -> None:
        """Record one histogram observation — a no-op without a registry.

        The ``metrics is None`` check is the *entire* disabled-path cost:
        no instrument lookup, no allocation (a regression test pins
        this), so hot loops may call it unconditionally.
        """
        if self.metrics is None:
            return
        self.metrics.histogram(name, help=help, **labels).observe(value)

    # -- deadline ------------------------------------------------------------

    def remaining(self) -> float | None:
        """Seconds left in the budget (``None`` when unbudgeted)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def check_deadline(self) -> None:
        """Raise :class:`SolveTimeout` if the wall-clock budget is spent."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolveTimeout(
                f"solve budget exhausted ({time.monotonic() - self.deadline:.3f}s over)"
            )

    # -- shared precomputation ----------------------------------------------

    def linearization(self, problem: "AAProblem") -> "Linearization":
        """The instance's linearization, via the shared cache when present."""
        if self.cache is not None:
            return self.cache.get(problem, ctx=self)
        from repro.core.linearize import linearize

        return linearize(problem, ctx=self)


class _Span:
    """One ``with ctx.span(name)`` block, driving every attached surface.

    It opens a node in the :class:`~repro.observability.Tracer` (when
    attached), then observes the block's duration in the ``SPAN_SECONDS``
    histogram (when a metrics registry is attached) and emits a ``span``
    event to the sink (when one is attached) — so instrumented code
    carries exactly one span idiom whichever surfaces are enabled.
    """

    def __init__(self, ctx: SolveContext, name: str) -> None:
        self._ctx = ctx
        self._name = name
        self._node: AbstractContextManager | None = None
        self._timer = Timer()

    def __enter__(self) -> None:
        if self._ctx.tracer is not None:
            self._node = self._ctx.tracer.span(self._name)
            self._node.__enter__()
        self._timer.__enter__()

    def __exit__(self, *exc: object) -> None:
        self._timer.__exit__(*exc)
        if self._node is not None:
            self._node.__exit__(*exc)
        seconds = self._timer.elapsed
        if self._ctx.metrics is not None:
            self._ctx.metrics.histogram(
                SPAN_SECONDS, help="Span durations by span name.", span=self._name
            ).observe(seconds)
        if self._ctx.sink is not None:
            self._ctx.sink.emit({"type": "span", "name": self._name, "seconds": seconds})
