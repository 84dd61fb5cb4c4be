"""Always-on flight recorder: a bounded ring of recent structured events.

Post-mortems need the last N interesting things the service did — not a
full event stream.  :class:`FlightRecorder` keeps a fixed-capacity
ring buffer of structured entries (steps, replans, rebalances, admission
rejects, gap alerts, slow requests) stamped with a monotonic sequence
number and an offset on the recorder's private monotonic clock, and dumps
it atomically as an ``aart-flight/1`` JSON document:

* on ``SIGUSR1`` (``aart serve``/``aart fleet serve`` install a handler),
* when ``/healthz`` flips to 503 (the HTTP sidecar dumps once per breach),
* on demand via the ``/debug/flight`` endpoint and ``aart client flight``.

The recorder doubles as an :class:`~repro.observability.sinks.EventSink`:
wired as a tee next to the service's JSONL sink it filters the firehose
down to the notable subset (``emit``), while the service also records
richer entries directly (``record``).  All mutation happens under one
private lock; ``snapshot`` copies under the lock and serializes outside
it, and ``dump`` writes tmp-then-rename so a reader never sees a torn
document.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.utils.atomic import write_atomic

FLIGHT_FORMAT = "aart-flight/1"

#: Event types always worth keeping (state changes + alerts).  ``request``
#: events are kept only when rejected or slower than the threshold.
NOTABLE_EVENTS = frozenset(
    {
        "step",
        "replan",
        "gap_alert",
        "fleet_step",
        "fleet_rebalance",
        "fleet_migration",
    }
)


class FlightRecorder:
    """Bounded, thread-safe ring buffer of recent notable events.

    Parameters
    ----------
    capacity:
        Maximum entries retained; older entries are dropped (counted in
        ``dropped``).
    slow_request_s:
        ``request`` events with ``latency_s`` at or above this ride into
        the ring even when successful.
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_request_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.slow_request_s = float(slow_request_s)
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self._seq = 0
        self._dropped = 0

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        """Append one entry, stamping sequence number and time offset."""
        entry = {"kind": str(kind), "t": self._clock() - self._epoch, **fields}
        with self._lock:
            self._seq += 1
            entry["seq"] = self._seq
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(entry)

    def emit(self, event: dict[str, Any]) -> None:
        """EventSink tee: keep the notable subset of a service event stream."""
        kind = event.get("type")
        if kind == "request":
            ok = event.get("ok", True)
            slow = float(event.get("latency_s", 0.0)) >= self.slow_request_s
            if ok and not slow:
                return
        elif kind not in NOTABLE_EVENTS:
            return
        fields = {k: v for k, v in event.items() if k != "type"}
        self.record(str(kind), **fields)

    # -- reading -------------------------------------------------------------

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def snapshot(self) -> dict[str, Any]:
        """The ring as one JSON-ready ``aart-flight/1`` document."""
        with self._lock:
            events = [dict(e) for e in self._ring]
            dropped = self._dropped
        return {
            "format": FLIGHT_FORMAT,
            "capacity": self.capacity,
            "dropped": dropped,
            "events": events,
        }

    def dump(self, path: str) -> None:
        """Atomically write the snapshot as JSON (see :func:`write_flight`)."""
        write_flight(self.snapshot(), path)


def write_flight(doc: dict[str, Any], path: str) -> None:
    """Atomically write a flight document as JSON (see
    :func:`~repro.utils.atomic.write_atomic`)."""
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


def load_flight(path: str) -> dict[str, Any]:
    """Read and validate an ``aart-flight/1`` dump."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FLIGHT_FORMAT:
        raise ValueError(
            f"not an {FLIGHT_FORMAT} document (format={doc.get('format')!r})"
        )
    if not isinstance(doc.get("events"), list):
        raise ValueError("flight dump missing 'events' list")
    return doc
