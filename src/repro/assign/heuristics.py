"""The paper's four practical baselines: UU, UR, RU, RR (Section VII).

Naming is assignment-allocation: the first letter picks how threads map to
servers (Uniform = round-robin, Random), the second how each server's
resource is split among its threads (Uniform = equal shares, Random =
uniform random point of the simplex).

All four return feasible :class:`~repro.core.problem.Assignment` objects;
allocations are clipped to each thread's utility domain (clipping never
changes utility — the functions are flat past their caps — but keeps the
assignment strictly feasible).

Each baseline also registers a trial-batched implementation
(:attr:`~repro.engine.registry.SolverSpec.batch_fn`) that evaluates a
whole :class:`~repro.core.batch.BatchProblem` at once.  Random draws come
from the chunk's :class:`~repro.utils.rng.TrialStreams`: one draw call per
chunk that returns, for every trial, exactly what the scalar call on the
trial's own generator would, so batched results are bit-identical to
per-trial runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import BatchAssignment, BatchLinearization, BatchProblem
from repro.core.problem import AAProblem, Assignment
from repro.engine.registry import RegistryView, register_solver
from repro.utils.rng import SeedLike, TrialStreams, as_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import SolveContext


def round_robin_servers(n: int, m: int) -> np.ndarray:
    """Thread ``i`` goes to server ``i mod m`` (the paper's Uniform assignment)."""
    return np.arange(n, dtype=np.int64) % m


def random_servers(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Independent uniform server choice per thread."""
    return rng.integers(0, m, size=n, dtype=np.int64)


def uniform_split(problem: AAProblem, servers: np.ndarray) -> np.ndarray:
    """Equal shares: every thread on a server gets ``C / (#threads there)``."""
    counts = np.bincount(servers, minlength=problem.n_servers)
    shares = problem.capacity / counts[servers]
    return np.minimum(shares, problem.utilities.caps)


def _spacings_gaps(
    cuts: np.ndarray, pos: np.ndarray, size: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Uniform-spacings gaps for grouped members, fully vectorized.

    ``cuts`` holds every group's sorted U(0,1) cut points concatenated;
    group ``g``'s cuts start at ``base`` and a member at within-group
    position ``pos`` (of ``size`` members) owns the gap between cut
    ``pos-1`` (or the 0 boundary) and cut ``pos`` (or the 1 boundary).
    The subtractions match ``np.diff`` over ``[0, cuts_g..., 1]`` exactly.
    """
    total = cuts.shape[0]
    guard = max(total - 1, 0)
    left = np.where(
        pos > 0, cuts[np.clip(base + pos - 1, 0, guard)] if total else 0.0, 0.0
    )
    right = np.where(
        pos < size - 1, cuts[np.clip(base + pos, 0, guard)] if total else 1.0, 1.0
    )
    return right - left


def _sorted_cuts(
    draws: np.ndarray, sizes: np.ndarray, ctx: "SolveContext | None" = None
) -> np.ndarray:
    """``draws`` cut into consecutive segments of ``sizes``, each sorted.

    One row-wise ``np.sort`` per distinct segment size over a
    ``(segments, size)`` view: the same values as sorting every segment on
    its own, since a segment's sort does not depend on the others.
    """
    distinct = np.unique(sizes[sizes > 0])
    if distinct.size == 1:  # every segment the same size (round-robin)
        return np.sort(draws.reshape(-1, int(distinct[0])), axis=1).reshape(-1)
    cuts = np.empty_like(draws)
    starts = np.cumsum(sizes) - sizes
    for size in distinct:
        if ctx is not None:
            ctx.check_deadline()
        rows = starts[sizes == size][:, None] + np.arange(size)
        cuts[rows] = np.sort(draws[rows], axis=1)
    return cuts


def _server_order(servers: np.ndarray, m: int) -> np.ndarray:
    """``np.argsort(servers, axis=-1, kind="stable")``; server ids narrower
    than 16 bits sort as such, which numpy radix-sorts."""
    if m <= 1 << 16:
        servers = servers.astype(np.uint8 if m <= 1 << 8 else np.uint16)
    return np.argsort(servers, axis=-1, kind="stable")


def random_split(
    problem: AAProblem,
    servers: np.ndarray,
    rng: np.random.Generator,
    ctx: "SolveContext | None" = None,
) -> np.ndarray:
    """Random shares: each server's ``C`` is split at uniform random.

    Uses the uniform-spacings construction (sorted U(0,1) gaps), i.e. a
    flat Dirichlet, so every split of the full capacity is equally likely.
    Vectorized over servers: one draw call for all cut points (PCG64
    streams split exactly, so the draws match the historical per-server
    calls bit-for-bit), then each server's cuts sort in place.
    """
    n = problem.n_threads
    m = problem.n_servers
    if n == 0:
        return np.zeros(0)
    counts = np.bincount(servers, minlength=m)
    sizes = np.where(counts >= 2, counts - 1, 0)
    total = int(np.sum(sizes))
    cuts = _sorted_cuts(rng.uniform(0.0, 1.0, size=total), sizes, ctx)
    order = _server_order(servers, m)
    svr = servers[order]
    pos = np.arange(n) - (np.cumsum(counts) - counts)[svr]
    gaps = _spacings_gaps(cuts, pos, counts[svr], (np.cumsum(sizes) - sizes)[svr])
    alloc = np.empty(n)
    # Singleton servers: gap spans [0, 1] so the product is exactly C.
    alloc[order] = gaps * problem.capacity
    return np.minimum(alloc, problem.utilities.caps)


def uu(
    problem: AAProblem, seed: SeedLike = None, ctx: "SolveContext | None" = None
) -> Assignment:
    """Uniform assignment, uniform allocation (deterministic; seed ignored)."""
    servers = round_robin_servers(problem.n_threads, problem.n_servers)
    return Assignment(servers=servers, allocations=uniform_split(problem, servers))


def ur(
    problem: AAProblem, seed: SeedLike = None, ctx: "SolveContext | None" = None
) -> Assignment:
    """Uniform assignment, random allocation."""
    rng = as_generator(seed)
    servers = round_robin_servers(problem.n_threads, problem.n_servers)
    return Assignment(
        servers=servers, allocations=random_split(problem, servers, rng, ctx=ctx)
    )


def ru(
    problem: AAProblem, seed: SeedLike = None, ctx: "SolveContext | None" = None
) -> Assignment:
    """Random assignment, uniform allocation."""
    rng = as_generator(seed)
    servers = random_servers(problem.n_threads, problem.n_servers, rng)
    return Assignment(servers=servers, allocations=uniform_split(problem, servers))


def rr(
    problem: AAProblem, seed: SeedLike = None, ctx: "SolveContext | None" = None
) -> Assignment:
    """Random assignment, random allocation."""
    rng = as_generator(seed)
    servers = random_servers(problem.n_threads, problem.n_servers, rng)
    return Assignment(
        servers=servers, allocations=random_split(problem, servers, rng, ctx=ctx)
    )


# -- trial-batched kernels ---------------------------------------------------


def _trial_groups(bp: BatchProblem, servers: np.ndarray) -> tuple[np.ndarray, int]:
    """Flat global group ids (trial t's server j → offset_t + j) and count."""
    offsets = np.concatenate(([0], np.cumsum(bp.n_servers)))[:-1]
    return (offsets[:, None] + servers).reshape(-1), int(np.sum(bp.n_servers))


def round_robin_servers_batch(bp: BatchProblem) -> np.ndarray:
    """Per-trial round-robin assignment, shape ``(trials, n)``."""
    return np.arange(bp.n_threads, dtype=np.int64)[None, :] % bp.n_servers[:, None]


def random_servers_batch(
    bp: BatchProblem,
    streams: TrialStreams,
    ctx: "SolveContext | None" = None,
) -> np.ndarray:
    """Per-trial random assignment, shape ``(trials, n)``: row ``t`` is
    :func:`random_servers` on lane ``t``, drawn for all lanes in one call."""
    if ctx is not None:
        ctx.check_deadline()
    servers = streams.integers(bp.n_servers, bp.n_threads)
    return servers.reshape(bp.n_trials, bp.n_threads)


def uniform_split_batch(bp: BatchProblem, servers: np.ndarray) -> np.ndarray:
    """Equal shares for every trial at once (bit-identical to per-trial)."""
    groups, k_total = _trial_groups(bp, servers)
    counts = np.bincount(groups, minlength=k_total)
    shares = np.repeat(bp.capacity, bp.n_threads) / counts[groups]
    alloc = np.minimum(shares, bp.utilities.caps)
    return alloc.reshape(bp.n_trials, bp.n_threads)


def random_split_batch(
    bp: BatchProblem,
    servers: np.ndarray,
    streams: TrialStreams,
    ctx: "SolveContext | None" = None,
) -> np.ndarray:
    """Uniform-spacings split of every trial's servers in one pass.

    Every lane draws its trial's cut points (the ``uniform`` call the
    scalar :func:`random_split` makes) in one call for the chunk, then all
    trials' segments sort and difference together, with the scalar's
    sorts, so every trial is bit for bit its scalar split.
    """
    T, n = bp.n_trials, bp.n_threads
    groups, k_total = _trial_groups(bp, servers)
    counts = np.bincount(groups, minlength=k_total)
    sizes = np.where(counts >= 2, counts - 1, 0)
    group_trial = np.repeat(np.arange(T), bp.n_servers)
    per_trial = np.bincount(group_trial, weights=sizes, minlength=T).astype(np.int64)
    if ctx is not None:
        ctx.check_deadline()
    cuts = _sorted_cuts(streams.uniform(0.0, 1.0, per_trial), sizes, ctx)
    # Trial-major, then server: each row's stable order, offset to its row.
    order = (_server_order(servers, int(bp.n_servers.max()))
             + n * np.arange(T)[:, None]).reshape(-1)
    grp = groups[order]
    pos = np.arange(T * n) - (np.cumsum(counts) - counts)[grp]
    gaps = _spacings_gaps(cuts, pos, counts[grp], (np.cumsum(sizes) - sizes)[grp])
    alloc = np.empty(T * n)
    alloc[order] = gaps * np.repeat(bp.capacity, n)  # order stays in its trial
    alloc = np.minimum(alloc, bp.utilities.caps)
    return alloc.reshape(T, n)


def _uu_batch(
    bp: BatchProblem,
    blin: BatchLinearization | None,
    ctx: "SolveContext | None",
    streams: TrialStreams,
) -> BatchAssignment:
    servers = round_robin_servers_batch(bp)
    return BatchAssignment(servers=servers, allocations=uniform_split_batch(bp, servers))


def _ur_batch(
    bp: BatchProblem,
    blin: BatchLinearization | None,
    ctx: "SolveContext | None",
    streams: TrialStreams,
) -> BatchAssignment:
    servers = round_robin_servers_batch(bp)
    return BatchAssignment(
        servers=servers, allocations=random_split_batch(bp, servers, streams, ctx=ctx)
    )


def _ru_batch(
    bp: BatchProblem,
    blin: BatchLinearization | None,
    ctx: "SolveContext | None",
    streams: TrialStreams,
) -> BatchAssignment:
    servers = random_servers_batch(bp, streams, ctx=ctx)
    return BatchAssignment(servers=servers, allocations=uniform_split_batch(bp, servers))


def _rr_batch(
    bp: BatchProblem,
    blin: BatchLinearization | None,
    ctx: "SolveContext | None",
    streams: TrialStreams,
) -> BatchAssignment:
    servers = random_servers_batch(bp, streams, ctx=ctx)
    return BatchAssignment(
        servers=servers, allocations=random_split_batch(bp, servers, streams, ctx=ctx)
    )


def _register_heuristic(
    name: str, fn, batch_fn, randomized: bool, complexity: str, description: str
) -> None:
    # Heuristics run raw in the paper's figures, so reclamation is declared
    # not applicable; the harness reports them exactly as produced.
    register_solver(
        name,
        lambda problem, lin, ctx, seed, _fn=fn: _fn(problem, seed=seed, ctx=ctx),
        kind="heuristic",
        ratio=None,
        complexity=complexity,
        reclaim=False,
        uses_linearization=False,
        randomized=randomized,
        batch_fn=batch_fn,
        description=description,
    )


_register_heuristic("UU", uu, _uu_batch, False, "O(n)", "round-robin assignment, equal shares")
_register_heuristic("UR", ur, _ur_batch, True, "O(n log n)", "round-robin assignment, random shares")
_register_heuristic("RU", ru, _ru_batch, True, "O(n)", "random assignment, equal shares")
_register_heuristic("RR", rr, _rr_batch, True, "O(n log n)", "random assignment, random shares")

#: Live view of the engine registry's heuristics; iteration order is the
#: registration (= paper legend) order.  Values are
#: :class:`~repro.engine.registry.SolverSpec` objects, callable exactly like
#: the bare functions: ``HEURISTICS["RR"](problem, seed=7)``.
HEURISTICS = RegistryView("heuristic")
