"""Event sinks: where instrumented runs write their structured events.

An *event* is a small JSON-serializable dict with at least a ``"type"``
key (``"span"``, ``"counters"``, ``"trial"``, …).  Sinks are deliberately
dumb — ordering and schema are owned by the emitters — so the same stream
serves the benches, the experiment harness and ad-hoc debugging.

Thread-safety: the allocation service's TCP transport serves each
connection on its own thread while sharing one sink, so :class:`JsonlSink`
serializes ``emit`` internally — concurrent events land as whole lines,
never interleaved mid-line.  :class:`MemorySink` appends are atomic under
the GIL; give it a ``maxlen`` when attaching it to a long-running daemon
so the buffer cannot grow without bound.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import IO, Protocol, runtime_checkable


@runtime_checkable
class EventSink(Protocol):
    """Anything that can receive instrumentation events."""

    def emit(self, event: dict) -> None:  # pragma: no cover - protocol
        ...


class MemorySink:
    """Buffers events in memory; used by tests and interactive sessions.

    Parameters
    ----------
    maxlen:
        Optional bound on the buffer.  When set, the oldest event is
        evicted on overflow and :attr:`dropped` counts the evictions —
        a service with an in-memory sink keeps its newest ``maxlen``
        events instead of growing forever.  Default: unbounded (tests
        want every event).
    """

    def __init__(self, maxlen: int | None = None) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"maxlen must be >= 1 (or None), got {maxlen}")
        self.events: deque[dict] = deque(maxlen=maxlen)
        #: Events evicted because the buffer was full.
        self.dropped = 0

    def emit(self, event: dict) -> None:
        if self.events.maxlen is not None and len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)

    def of_type(self, event_type: str) -> list[dict]:
        """All buffered events with ``event["type"] == event_type``."""
        return [e for e in self.events if e.get("type") == event_type]


class TeeSink:
    """Fans every event out to several sinks (e.g. JSONL + flight recorder).

    Emission order is construction order; sinks are assumed independent.
    """

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)


def tee_sinks(*sinks: EventSink | None) -> EventSink | None:
    """The one sink feeding every attached sink of ``sinks``, in order.

    ``None`` when none is attached (so emitters skip building events),
    the sink itself when one is, and a :class:`TeeSink` of all otherwise.
    """
    attached = [sink for sink in sinks if sink is not None]
    if len(attached) > 1:
        return TeeSink(*attached)
    return attached[0] if attached else None


class JsonlSink:
    """Appends one JSON object per line to a file (or file-like object).

    The file handle is opened lazily on first emit and flushed per event,
    so partially complete runs still leave a readable trace.  ``emit`` is
    serialized by an internal lock: concurrent emitters (the service's
    per-connection threads) each produce a complete line.  A path-backed
    sink transparently reopens (in append mode) if an event arrives after
    :meth:`close`.
    """

    def __init__(self, path_or_file) -> None:
        self._file: IO[str] | None = None
        self._path: Path | None = None
        self._lock = threading.Lock()
        if hasattr(path_or_file, "write"):
            self._file = path_or_file
        else:
            self._path = Path(path_or_file)

    def emit(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True) + "\n"
        with self._lock:
            if self._file is None:
                assert self._path is not None
                self._file = self._path.open("a", encoding="utf-8")
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None and self._path is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
