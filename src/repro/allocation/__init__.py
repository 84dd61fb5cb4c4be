"""Single-pool concave allocators, knapsack substrates, price discovery."""

from repro.allocation.fox import DiscreteAllocationResult, fox_greedy
from repro.allocation.galil import galil_discrete
from repro.allocation.grouped import GroupedAllocationResult, water_fill_grouped
from repro.allocation.mckp import (
    MCKPItem,
    MCKPSolution,
    mckp_dp,
    mckp_greedy,
    utilities_to_classes,
)
from repro.allocation.prices import (
    pack_demands_batch,
    price_discovery,
    price_discovery_batch_kernel,
)
from repro.allocation.waterfill import AllocationResult, kkt_violation, water_fill

__all__ = [
    "AllocationResult",
    "DiscreteAllocationResult",
    "GroupedAllocationResult",
    "water_fill_grouped",
    "MCKPItem",
    "MCKPSolution",
    "fox_greedy",
    "galil_discrete",
    "kkt_violation",
    "mckp_dp",
    "mckp_greedy",
    "pack_demands_batch",
    "price_discovery",
    "price_discovery_batch_kernel",
    "utilities_to_classes",
    "water_fill",
]
