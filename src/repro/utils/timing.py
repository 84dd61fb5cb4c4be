"""Wall-clock timing for the harness, benches and observability.

:class:`Timer` measures one interval at a time; the instrumented
:class:`~repro.engine.context.SolveContext` spans are built on it.
"""

from __future__ import annotations

import time


class Timer:
    """Context manager recording the elapsed wall-clock seconds of a block.

    ``elapsed`` holds the most recent completed interval; a ``Timer`` may
    be reused sequentially.

    >>> with Timer() as t:
    ...     sum(range(10))
    >>> t.elapsed >= 0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._start is None:
            raise RuntimeError("Timer.__exit__ called on a timer that was never started")
        self.elapsed = time.perf_counter() - self._start
