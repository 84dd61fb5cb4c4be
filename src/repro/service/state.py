"""Versioned cluster state owned by the allocation service.

A :class:`ClusterState` wraps the live :class:`~repro.extensions.online.OnlineScheduler`
(servers, resident threads, current assignment) and adds the two things a
long-running daemon needs on top of a scheduler object:

* a monotonically increasing **version** — every mutation bumps it, so
  clients and snapshots can tell "which state am I looking at";
* an append-only **event log** — one dict per mutation (arrival,
  departure, capacity change, replan), each stamped with the version it
  produced.  The log is the daemon's flight recorder: replaying it over a
  snapshot reconstructs how the cluster got here.

The state serializes to a plain dict (:meth:`to_dict` / :meth:`from_dict`)
whose round trip is bit-identical; :mod:`repro.service.snapshot` adds the
file format on top.
"""

from __future__ import annotations

from typing import Any

from repro.core.problem import Assignment
from repro.extensions.online import OnlineScheduler, RebalanceReport
from repro.serialization import (
    SCHEDULER_FORMAT,
    scheduler_state_from_dict,
    scheduler_state_to_dict,
)
from repro.utility.base import UtilityFunction

STATE_FORMAT = "aart-cluster-state/1"


class ClusterState:
    """The allocation daemon's single source of truth.

    Parameters
    ----------
    n_servers, capacity, migration_cost, solver:
        Forwarded to the underlying :class:`OnlineScheduler` (``solver``
        is the registry name its replans re-solve with, ``aart serve
        --solver``).
    scheduler:
        Optional pre-built scheduler (used by :meth:`from_dict`); when
        given, the scalar parameters are ignored.
    """

    def __init__(
        self,
        n_servers: int = 1,
        capacity: float = 1.0,
        migration_cost: float = 0.0,
        scheduler: OnlineScheduler | None = None,
        solver: str = "alg2",
    ):
        self.scheduler = (
            scheduler
            if scheduler is not None
            else OnlineScheduler(n_servers, capacity, migration_cost, solver=solver)
        )
        self.version = 0
        self.log: list[dict[str, Any]] = []
        #: Incremental steps applied since the last full re-solve (or start).
        self.steps_since_replan = 0

    # -- views ---------------------------------------------------------------

    @property
    def n_servers(self) -> int:
        return self.scheduler.n_servers

    @property
    def capacity(self) -> float:
        return self.scheduler.capacity

    @property
    def n_threads(self) -> int:
        return len(self.scheduler)

    @property
    def thread_ids(self) -> list[str]:
        return self.scheduler.thread_ids

    def assignment(self) -> Assignment:
        return self.scheduler.assignment()

    def total_utility(self) -> float:
        return self.scheduler.total_utility()

    # -- event log -----------------------------------------------------------

    def record(self, event: str, **fields: Any) -> dict[str, Any]:
        """Bump the version and append one event to the log."""
        self.version += 1
        entry = {"version": self.version, "event": event, **fields}
        self.log.append(entry)
        return entry

    # -- mutations (each one event) -------------------------------------------

    def apply_arrival(self, thread_id: str, utility: UtilityFunction) -> int:
        """Greedy placement of one thread; logs an ``arrival`` event."""
        server = self.scheduler.add_thread(thread_id, utility)
        self.record("arrival", thread_id=thread_id, server=server)
        return server

    def apply_departure(self, thread_id: str) -> None:
        """Removal of one thread; logs a ``departure`` event."""
        self.scheduler.remove_thread(thread_id)
        self.record("departure", thread_id=thread_id)

    def apply_capacity(self, capacity: float) -> None:
        """Uniform server resize; logs a ``capacity`` event."""
        self.scheduler.update_capacity(capacity)
        self.record("capacity", capacity=float(capacity))

    def mark_step(self) -> None:
        """One coalesced incremental step has been applied."""
        self.steps_since_replan += 1

    def apply_rebalance(
        self, ctx=None, max_migrations: int | None = None, reason: str = "requested"
    ) -> RebalanceReport:
        """Full re-solve through the scheduler; logs a ``replan`` event."""
        report = self.scheduler.rebalance(ctx=ctx, max_migrations=max_migrations)
        self.steps_since_replan = 0
        self.record(
            "replan",
            reason=reason,
            migrations=report.migrations,
            utility_before=report.utility_before,
            utility_after=report.utility_after,
        )
        return report

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict; ``from_dict`` round-trips it bit-identically."""
        return {
            "format": STATE_FORMAT,
            "version": self.version,
            "steps_since_replan": self.steps_since_replan,
            "scheduler": scheduler_state_to_dict(self.scheduler),
            "log": [dict(e) for e in self.log],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClusterState":
        if data.get("format") != STATE_FORMAT:
            raise ValueError(
                f"not an {STATE_FORMAT} document (format={data.get('format')!r})"
            )
        sched_data = data["scheduler"]
        if sched_data.get("format") != SCHEDULER_FORMAT:
            raise ValueError("embedded scheduler state has the wrong format marker")
        state = cls(scheduler=scheduler_state_from_dict(sched_data))
        state.version = int(data["version"])
        state.steps_since_replan = int(data.get("steps_since_replan", 0))
        state.log = [dict(e) for e in data.get("log", [])]
        return state
