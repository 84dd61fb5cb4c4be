"""The paper's core contribution: AA model, bound, and approximation algorithms."""

from repro.core.algorithm1 import algorithm1
from repro.core.algorithm2 import algorithm2, thread_order
from repro.core.algorithm2_batch import algorithm2_batch_kernel, thread_order_batch
from repro.core.batch import (
    BatchAssignment,
    BatchLinearization,
    BatchProblem,
    linearize_batch,
    reclaim_batch,
)
from repro.core.discrete import (
    DiscreteLinearization,
    algorithm2_discrete,
    linearize_discrete,
    reclaim_discrete,
    solve_discrete,
)
from repro.core.exact import exact_continuous, exact_discrete_value, iter_partitions
from repro.core.linearize import Linearization, linearize
from repro.core.postprocess import reclaim, waterfill_within_servers
from repro.core.problem import ALPHA, AAProblem, Assignment
from repro.core.solve import Solution, solve
from repro.core.tightness import (
    TIGHTNESS_RATIO,
    tightness_instance,
    tightness_optimal_utility,
)

__all__ = [
    "ALPHA",
    "AAProblem",
    "Assignment",
    "BatchAssignment",
    "BatchLinearization",
    "BatchProblem",
    "DiscreteLinearization",
    "Linearization",
    "algorithm2_batch_kernel",
    "algorithm2_discrete",
    "linearize_batch",
    "reclaim_batch",
    "thread_order_batch",
    "linearize_discrete",
    "reclaim_discrete",
    "solve_discrete",
    "Solution",
    "TIGHTNESS_RATIO",
    "algorithm1",
    "algorithm2",
    "exact_continuous",
    "exact_discrete_value",
    "iter_partitions",
    "linearize",
    "reclaim",
    "solve",
    "thread_order",
    "waterfill_within_servers",
    "tightness_instance",
    "tightness_optimal_utility",
]
