"""Online AA: arrivals, departures, re-planning and migration accounting.

Paper future work ("utility functions of threads may change over time …
integrate online performance measurements").  The scheduler keeps a live
assignment under churn:

* **arrival** — the thread is placed greedily on the server whose
  water-filled utility gains the most from hosting it (no migrations);
* **departure** — the thread leaves; its server's resource is re-filled
  among the remaining residents;
* **rebalance** — full Algorithm 2 re-solve; threads whose server changes
  count as migrations and pay ``migration_cost`` each, so callers can
  weigh re-optimization gain against movement cost.

Resident layout.  Residents are rows in insertion order: one packed
utility batch (:func:`~repro.utility.batch.pack_utilities` — a
:class:`~repro.utility.batch.QuadSplineBatch` when every resident is a
paper quadspline, else a :class:`~repro.utility.batch.GenericBatch`), an
int ``server`` column, a float ``alloc`` column and an id → row index.
The scalar utility objects are kept only for serialization.

Every fill prices servers in lock-step.  Each server's λ is one entry of
a price vector that :func:`~repro.allocation.grouped.water_fill_grouped`
searches for all servers at once, starting each server at its current
price (the largest marginal among its unsaturated residents, derived from
the state alone, so a restored scheduler fills exactly as the live one).
A join only raises a server's price and a departure only lowers it, so the
search brackets the new price in a step or two:

* :meth:`OnlineScheduler.placement_gain` runs **one** grouped fill per
  arrival over the residents (group = their server) plus ``m`` copies of
  the newcomer (copy ``j`` in group ``j``); server ``j``'s gain is its
  group's utility minus its current utility, the best server is the first
  argmax, and :meth:`~OnlineScheduler.add_thread` applies the chosen
  group's allocations from that same fill instead of filling again;
* the gain is clamped at ``0.0``: the newcomer may take nothing, so adding
  a thread never lowers a water-filled optimum, and a negative difference
  is price-search noise (an admission floor of 0 would otherwise refuse it);
* departures and capacity changes only mark servers stale; a server's
  fill depends on its resident set alone, so every stale server is
  re-filled together in one grouped call before the next read.

:meth:`~OnlineScheduler.problem` and :meth:`~OnlineScheduler.total_utility`
are memoized until the next mutation, so a service step's certificate and
its replan share one :class:`~repro.core.problem.AAProblem` (and one
cached linearization).

:class:`AdaptiveScheduler` layers measurement on top: utilities start
unknown, throughput observations stream in, and planning uses the current
concave fits (:mod:`repro.utility.calibration`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.allocation.grouped import water_fill_grouped
# Unused here (every fill is grouped), but perfbench's traced pass wraps
# ``water_fill`` where this module binds it.
from repro.allocation.waterfill import water_fill  # noqa: F401
from repro.core.problem import AAProblem, Assignment
from repro.core.solve import solve
from repro.utility.base import UtilityFunction
from repro.utility.batch import UtilityBatch, concat_batches, pack_utilities
from repro.utility.calibration import OnlineUtilityEstimator


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of a full re-solve."""

    utility_before: float
    utility_after: float
    migrations: int
    migration_cost: float

    @property
    def net_gain(self) -> float:
        return self.utility_after - self.utility_before - self.migration_cost


@dataclass(frozen=True)
class _Placement:
    """One arrival priced on every server; valid until the next mutation."""

    utility: UtilityFunction
    server: int
    gain: float
    #: The priced batch: residents, then one copy of the newcomer per server.
    batch: UtilityBatch
    #: Rows of the chosen server's residents and their allocations with
    #: the newcomer present.
    members: np.ndarray
    member_alloc: np.ndarray
    #: The newcomer's own allocation on the chosen server.
    alloc: float


class _AllocView:
    """Id-keyed write access to the allocation column.

    Writes bypass every invariant (perfbench corrupts a state through it on
    purpose and checks that validation catches it).
    """

    def __init__(self, scheduler: "OnlineScheduler") -> None:
        self._scheduler = scheduler

    def __setitem__(self, thread_id: str, allocation: float) -> None:
        s = self._scheduler
        s._settle()
        s._alloc[s._row_of(thread_id)] = float(allocation)
        s._moved()


class OnlineScheduler:
    """Maintains a live AA assignment under thread churn."""

    def __init__(
        self,
        n_servers: int,
        capacity: float,
        migration_cost: float = 0.0,
        solver: str = "alg2",
    ):
        if n_servers < 1 or capacity <= 0:
            raise ValueError("need n_servers >= 1 and capacity > 0")
        if migration_cost < 0:
            raise ValueError("migration_cost must be nonnegative")
        from repro.engine import get_solver

        get_solver(solver)  # fail fast on unknown solver names
        self.n_servers = int(n_servers)
        self.capacity = float(capacity)
        self.migration_cost = float(migration_cost)
        #: Registry name of the algorithm :meth:`rebalance` re-solves with.
        self.solver = str(solver)
        self.total_migrations = 0
        # Resident rows, insertion order.
        self._ids: list[str] = []
        self._utils: list[UtilityFunction] = []
        self._rows: dict[str, int] = {}
        self._server = np.zeros(0, dtype=np.int64)
        self._alloc = np.zeros(0)
        #: Packed residents; ``None`` until the next use repacks them.
        self._batch: UtilityBatch | None = None
        #: Servers whose allocations await a re-fill (see :meth:`_settle`).
        self._stale: set[int] = set()
        # Views memoized until the next mutation.
        self._problem_memo: AAProblem | None = None
        self._total_memo: float | None = None
        self._server_utility: np.ndarray | None = None
        self._placement_memo: _Placement | None = None

    # -- layout ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, thread_id: object) -> bool:
        return thread_id in self._rows

    def _row_of(self, thread_id: str) -> int:
        try:
            return self._rows[thread_id]
        except KeyError:
            raise KeyError(f"unknown thread {thread_id!r}") from None

    def _packed(self) -> UtilityBatch:
        if self._batch is None:
            self._batch = pack_utilities(self._utils)
        return self._batch

    def _moved(self) -> None:
        """Servers or allocations changed: drop the allocation-dependent views."""
        self._total_memo = None
        self._server_utility = None
        self._placement_memo = None

    def _reshaped(self) -> None:
        """Residents, their utilities or the capacity changed: drop every view."""
        self._problem_memo = None
        self._moved()

    def _append(self, thread_id: str, utility: UtilityFunction, server: int, alloc: float) -> None:
        self._rows[thread_id] = len(self._ids)
        self._ids.append(thread_id)
        self._utils.append(utility)
        self._server = np.append(self._server, np.int64(server))
        self._alloc = np.append(self._alloc, float(alloc))
        self._batch = None
        self._reshaped()

    def _settle(self) -> None:
        """Re-fill every stale server, all of them in one grouped call."""
        if not self._stale:
            return
        touched = np.array(sorted(self._stale), dtype=np.int64)
        self._stale.clear()
        rows = np.flatnonzero(np.isin(self._server, touched))
        if rows.size == 0:
            return
        start = self._prices()[touched]
        batch = self._packed()
        if rows.size < len(batch):
            batch = batch.subset(rows)
        fill = water_fill_grouped(
            batch,
            np.searchsorted(touched, self._server[rows]),
            np.full(touched.size, self.capacity),
            start=start,
        )
        self._alloc[rows] = fill.allocations

    def _prices(self) -> np.ndarray:
        """Each server's price in the current allocation: the largest
        marginal ``f_i'(c_i)`` among its unsaturated residents (``-inf``
        when it has none, which the fill replaces by its default start).

        It seeds the next fill of each server.  It is derived from the
        servers, allocations and utilities alone, so a restored scheduler
        seeds its fills exactly as the live one would have.
        """
        prices = np.full(self.n_servers, -np.inf)
        if not self._ids:
            return prices
        batch = self._packed()
        open_rows = self._alloc < batch.caps
        np.maximum.at(
            prices, self._server[open_rows], batch.derivative(self._alloc)[open_rows]
        )
        return prices

    def _server_utilities(self) -> np.ndarray:
        """Each server's current utility (settled state)."""
        if self._server_utility is None:
            self._server_utility = np.bincount(
                self._server, weights=self._packed().value(self._alloc), minlength=self.n_servers
            )
        return self._server_utility

    # -- views ---------------------------------------------------------------

    @property
    def thread_ids(self) -> list[str]:
        return list(self._ids)

    @property
    def _alloc_of(self) -> _AllocView:
        return _AllocView(self)

    def _problem(self) -> AAProblem:
        return AAProblem(self._packed(), n_servers=self.n_servers, capacity=self.capacity)

    def problem(self) -> AAProblem:
        """The current residents as an AA instance (thread-id insertion order).

        The same object is returned until the residents, their utilities or
        the capacity change, so linearizations cached against it stay hits.
        """
        if self._problem_memo is None:
            self._problem_memo = self._problem()
        return self._problem_memo

    def placement_of(self, thread_id: str) -> tuple[int, float]:
        """Current ``(server, allocation)`` of one resident thread."""
        row = self._row_of(thread_id)
        self._settle()
        return int(self._server[row]), float(self._alloc[row])

    def residents(self) -> Iterator[tuple[str, UtilityFunction, int, float]]:
        """``(id, utility, server, allocation)`` per resident, insertion order."""
        self._settle()
        for k, thread_id in enumerate(self._ids):
            yield thread_id, self._utils[k], int(self._server[k]), float(self._alloc[k])

    def assignment(self) -> Assignment:
        """Current assignment in thread-id insertion order."""
        self._settle()
        return Assignment(servers=self._server.copy(), allocations=self._alloc.copy())

    def total_utility(self) -> float:
        if not self._ids:
            return 0.0
        if self._total_memo is None:
            self._settle()
            self._total_memo = self._packed().total(self._alloc)
        return self._total_memo

    # -- churn ----------------------------------------------------------------

    def _placement(self, utility: UtilityFunction) -> _Placement:
        """Price ``utility`` on every server in one grouped water-fill."""
        memo = self._placement_memo
        if memo is not None and memo.utility is utility:
            return memo
        if utility.cap > self.capacity * (1 + 1e-9):
            raise ValueError("utility cap exceeds server capacity")
        self._settle()
        m, n = self.n_servers, len(self._ids)
        # m copies as rows of one packed thread: the utility is validated once.
        copies = pack_utilities([utility]).subset(np.zeros(m, dtype=np.int64))
        batch = concat_batches([self._packed(), copies]) if n else copies
        fill = water_fill_grouped(
            batch,
            np.concatenate([self._server, np.arange(m, dtype=np.int64)]),
            np.full(m, self.capacity),
            start=self._prices(),
        )
        gains = fill.group_utilities - self._server_utilities()
        best = int(np.argmax(gains))
        members = np.flatnonzero(self._server == best)
        self._placement_memo = _Placement(
            utility=utility,
            server=best,
            gain=max(float(gains[best]), 0.0),
            batch=batch,
            members=members,
            member_alloc=fill.allocations[members],
            alloc=float(fill.allocations[n + best]),
        )
        return self._placement_memo

    def placement_gain(self, utility: UtilityFunction) -> tuple[int, float]:
        """Best greedy placement for a hypothetical new thread.

        Returns ``(server, gain)`` where ``gain >= 0`` is the total-utility
        increase from re-water-filling that server with the thread present
        (no existing thread moves, nothing is mutated).  This is the
        *projected marginal utility* the allocation service's admission
        control compares against its floor before accepting a thread.  A
        following :meth:`add_thread` of the same utility object reuses this
        fill.
        """
        placement = self._placement(utility)
        return placement.server, placement.gain

    def add_thread(self, thread_id: str, utility: UtilityFunction) -> int:
        """Place a new thread greedily; returns the chosen server.

        The thread joins the server where re-water-filling with it present
        yields the largest total-utility gain (no existing thread moves).
        """
        if thread_id in self._rows:
            raise ValueError(f"thread {thread_id!r} already scheduled")
        placement = self._placement(utility)
        n = len(self._ids)
        self._alloc[placement.members] = placement.member_alloc
        self._append(thread_id, utility, placement.server, placement.alloc)
        if placement.batch.supports_vectorized:
            # The priced batch already holds the newcomer packed with the
            # residents; a loop-backed one is repacked on next use instead.
            self._batch = placement.batch.subset(np.append(np.arange(n), n + placement.server))
        return placement.server

    def restore_thread(
        self,
        thread_id: str,
        utility: UtilityFunction,
        server: int,
        allocation: float,
    ) -> None:
        """Reinstate a thread at an exact (server, allocation) position.

        Used by snapshot restore: no greedy placement, no re-fill — the
        thread lands exactly where the serialized state says it was, so a
        restored scheduler is bit-identical to the one that was saved.
        """
        if thread_id in self._rows:
            raise ValueError(f"thread {thread_id!r} already scheduled")
        if not 0 <= int(server) < self.n_servers:
            raise ValueError(f"server {server!r} out of range [0, {self.n_servers})")
        if utility.cap > self.capacity * (1 + 1e-9):
            raise ValueError("utility cap exceeds server capacity")
        if not 0 <= allocation <= self.capacity * (1 + 1e-9):
            raise ValueError(f"allocation {allocation!r} outside [0, {self.capacity}]")
        self._append(thread_id, utility, int(server), float(allocation))

    def update_capacity(self, capacity: float) -> None:
        """Resize every server to ``capacity`` and re-fill all allocations.

        The new capacity must still dominate every resident utility's
        domain cap (the paper's feasibility precondition ``cap_i <= C``).
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        caps = self._packed().caps
        over = np.flatnonzero(caps > capacity * (1 + 1e-9))
        if over.size:
            k = int(over[0])
            raise ValueError(
                f"thread {self._ids[k]!r} has utility cap {float(caps[k])!r} "
                f"above new capacity {capacity!r}"
            )
        self.capacity = float(capacity)
        self._stale.update(range(self.n_servers))
        self._reshaped()

    def remove_thread(self, thread_id: str) -> None:
        """Drop a thread and hand its resource to its server's residents."""
        row = self._row_of(thread_id)
        self._stale.add(int(self._server[row]))
        del self._rows[thread_id], self._ids[row], self._utils[row]
        for k in range(row, len(self._ids)):
            self._rows[self._ids[k]] = k
        self._server = np.delete(self._server, row)
        self._alloc = np.delete(self._alloc, row)
        batch = self._batch
        if batch is not None and batch.supports_vectorized:
            self._batch = batch.subset(np.delete(np.arange(len(batch)), row))
        else:
            self._batch = None  # may repack into an array family now
        self._reshaped()

    def rebalance(self, ctx=None, max_migrations: int | None = None) -> RebalanceReport:
        """Full re-solve with the configured ``solver`` (default Algorithm 2);
        applies only if the net gain is positive.

        ``ctx`` is an optional :class:`~repro.engine.SolveContext` so churn
        loops can accumulate counters/spans and enforce a re-plan deadline.
        ``max_migrations`` (the service's migration budget) declines the
        re-solve outright when it would move more threads than allowed.
        """
        before = self.total_utility()
        if not self._ids:
            return RebalanceReport(before, before, 0, 0.0)
        sol = solve(self.problem(), algorithm=self.solver, ctx=ctx)
        moved = int(np.count_nonzero(self._server != sol.assignment.servers))
        cost = moved * self.migration_cost
        if max_migrations is not None and moved > max_migrations:
            return RebalanceReport(before, before, 0, 0.0)
        if sol.total_utility - cost <= before:
            return RebalanceReport(before, before, 0, 0.0)
        self._server = np.asarray(sol.assignment.servers, dtype=np.int64).copy()
        self._alloc = np.asarray(sol.assignment.allocations, dtype=float).copy()
        self._moved()
        self.total_migrations += moved
        return RebalanceReport(before, sol.total_utility, moved, cost)


class AdaptiveScheduler(OnlineScheduler):
    """Online scheduler whose utilities are *learned* from measurements.

    Threads are registered without a utility; every
    ``observe(thread_id, allocation, throughput)`` refines a concave fit,
    and :meth:`replan_from_measurements` re-solves with the current fits.
    Until a thread has data it is modeled by a mild default prior (linear
    up to the server capacity, unit peak).
    """

    def __init__(
        self,
        n_servers: int,
        capacity: float,
        migration_cost: float = 0.0,
        n_knots: int = 12,
        window: int | None = 256,
        solver: str = "alg2",
    ):
        super().__init__(n_servers, capacity, migration_cost, solver=solver)
        self._estimators: dict[str, OnlineUtilityEstimator] = {}
        self._n_knots = int(n_knots)
        self._window = window

    def register(self, thread_id: str) -> int:
        """Add an unmeasured thread under the default prior."""
        from repro.utility.functions import LinearUtility

        prior = LinearUtility(slope=1.0 / self.capacity, cap=self.capacity)
        server = self.add_thread(thread_id, prior)
        self._estimators[thread_id] = OnlineUtilityEstimator(
            cap=self.capacity, n_knots=self._n_knots, window=self._window
        )
        return server

    def observe(self, thread_id: str, allocation: float, throughput: float) -> None:
        """Record one throughput measurement for a registered thread."""
        try:
            self._estimators[thread_id].observe(allocation, throughput)
        except KeyError:
            raise KeyError(f"unknown thread {thread_id!r}") from None

    def replan_from_measurements(self, ctx=None) -> RebalanceReport:
        """Swap in the current concave fits, repack, then rebalance."""
        for t, est in self._estimators.items():
            fitted = est.estimate()
            if fitted is not None and t in self._rows:
                self._utils[self._rows[t]] = fitted
        self._batch = None
        # Allocations may now be valued differently; refill before comparing.
        self._stale.update(range(self.n_servers))
        self._reshaped()
        return self.rebalance(ctx=ctx)
