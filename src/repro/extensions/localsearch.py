"""Local-search refinement of AA assignments (move / swap neighborhoods).

Not part of the paper — an engineering extension that answers the natural
reviewer question "how much is left on the table after Algorithm 2?".
Starting from any feasible assignment, repeatedly apply the best
improving *move* (relocate one thread to another server) or *swap*
(exchange two threads' servers), re-water-filling the affected servers
after each change.  Each accepted step strictly increases total utility,
so termination is guaranteed; the result keeps Algorithm 2's α guarantee
because utility never decreases.

Complexity per pass is O(n·m) move evaluations (each a small grouped
water-fill), so this is a polish step for medium instances, not a solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocation.grouped import water_fill_grouped
from repro.core.postprocess import waterfill_within_servers
from repro.core.problem import AAProblem, Assignment


@dataclass(frozen=True)
class LocalSearchResult:
    """Refined assignment plus search statistics."""

    assignment: Assignment
    total_utility: float
    initial_utility: float
    moves: int
    swaps: int
    passes: int

    @property
    def improvement(self) -> float:
        return self.total_utility - self.initial_utility


def _server_values(problem: AAProblem, servers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal per-server utility and allocations for a fixed assignment."""
    result = water_fill_grouped(
        problem.utilities, servers, np.full(problem.n_servers, problem.capacity)
    )
    return result.group_utilities, result.allocations


def local_search(
    problem: AAProblem,
    start: Assignment,
    max_passes: int = 10,
    use_swaps: bool = True,
    min_gain: float = 1e-9,
    ctx=None,
) -> LocalSearchResult:
    """First-improvement local search over move and swap neighborhoods.

    Parameters
    ----------
    problem:
        The AA instance.
    start:
        Any feasible assignment (e.g. from :func:`~repro.core.solve.solve`).
    max_passes:
        Full sweeps over the neighborhoods before giving up.
    use_swaps:
        Also consider exchanging two threads between servers (catches the
        Theorem V.17 pathology that moves alone cannot fix when both
        servers are full).
    min_gain:
        Accept a step only if it improves total utility by more than this
        (relative to the current utility scale).
    ctx:
        Optional :class:`~repro.engine.SolveContext`; each neighborhood
        evaluation polls its deadline so a budgeted service re-solve can
        abandon a long polish mid-pass.
    """
    n, m = problem.n_threads, problem.n_servers
    servers = np.asarray(start.servers, dtype=np.int64).copy()
    if servers.shape != (n,):
        raise ValueError("start assignment does not match the problem")
    group_values, _ = _server_values(problem, servers)
    moves = swaps = passes = 0
    initial = float(start.total_utility(problem))

    def pair_value(members_a, members_b, ga, gb):
        """Utility of servers ga/gb after re-splitting their residents."""
        union = np.concatenate([members_a, members_b])
        if union.size == 0:
            return 0.0
        sub = problem.utilities.subset(union)
        local_groups = np.concatenate(
            [np.zeros(members_a.size, dtype=np.int64), np.ones(members_b.size, dtype=np.int64)]
        )
        res = water_fill_grouped(
            sub, local_groups, np.full(2, problem.capacity)
        )
        return float(res.total_utility)

    for _ in range(max_passes):
        passes += 1
        improved = False
        scale = max(float(np.sum(group_values)), 1.0)
        threshold = min_gain * scale

        # Move neighborhood: thread i from its server to server j.
        for i in range(n):
            if ctx is not None:
                ctx.check_deadline()
            src = int(servers[i])
            for dst in range(m):
                if dst == src:
                    continue
                members_src = np.nonzero(servers == src)[0]
                members_dst = np.nonzero(servers == dst)[0]
                before = group_values[src] + group_values[dst]
                new_src = members_src[members_src != i]
                new_dst = np.append(members_dst, i)
                after = pair_value(new_src, new_dst, src, dst)
                if after > before + threshold:
                    servers[i] = dst
                    group_values, _ = _server_values(problem, servers)
                    moves += 1
                    improved = True
                    break

        # Swap neighborhood.
        if use_swaps:
            for i in range(n):
                if ctx is not None:
                    ctx.check_deadline()
                for j in range(i + 1, n):
                    si, sj = int(servers[i]), int(servers[j])
                    if si == sj:
                        continue
                    members_i = np.nonzero(servers == si)[0]
                    members_j = np.nonzero(servers == sj)[0]
                    before = group_values[si] + group_values[sj]
                    new_i = np.append(members_i[members_i != i], j)
                    new_j = np.append(members_j[members_j != j], i)
                    after = pair_value(new_i, new_j, si, sj)
                    if after > before + threshold:
                        servers[i], servers[j] = sj, si
                        group_values, _ = _server_values(problem, servers)
                        swaps += 1
                        improved = True
                        break
                else:
                    continue
                break

        if not improved:
            break

    final = waterfill_within_servers(problem, servers)
    return LocalSearchResult(
        assignment=final,
        total_utility=final.total_utility(problem),
        initial_utility=initial,
        moves=moves,
        swaps=swaps,
        passes=passes,
    )


def solve_with_refinement(problem: AAProblem, **kwargs) -> LocalSearchResult:
    """Algorithm 2 + reclamation + local search, in one call."""
    from repro.core.solve import solve

    base = solve(problem)
    return local_search(problem, base.assignment, **kwargs)


def _run_registered(problem, lin, ctx, seed):
    """Engine adapter: Algorithm 2 + reclamation + local-search polish."""
    from repro.core.algorithm2 import algorithm2
    from repro.core.postprocess import reclaim

    start = reclaim(problem, algorithm2(problem, lin, ctx=ctx), ctx=ctx, start=lin.price)
    return local_search(problem, start, ctx=ctx).assignment


def _register() -> None:
    from repro.core.problem import ALPHA
    from repro.engine.registry import register_solver

    # Output is already per-server water-filled, so the generic reclamation
    # post-pass would be a no-op; declare it not applicable.
    register_solver(
        "localsearch",
        _run_registered,
        kind="extension",
        ratio=ALPHA,
        complexity="O(passes · n · m) grouped water-fills after O(n(log mC)²)",
        reclaim=False,
        uses_linearization=True,
        description="Algorithm 2 polished by move/swap local search",
    )


_register()
