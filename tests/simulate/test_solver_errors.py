"""Every simulator plans through ``solve()``: a solver's own error reaches the caller.

Only an unregistered name is reported as an unknown algorithm; a
``ValueError`` raised inside a registered solver keeps its own message.
"""

import pytest

from repro.engine import register_solver, unregister_solver
from repro.simulate.cache.chip import plan_partitioning
from repro.simulate.cache.trace import zipf_trace
from repro.simulate.cloud.provider import CloudProvider
from repro.simulate.cloud.vm import random_portfolio
from repro.simulate.hosting.center import HostingCenter, random_services

PLANNERS = {
    "chip": lambda method: plan_partitioning(
        [zipf_trace(20, 300, seed=k) for k in range(3)], 2, 8, method=method
    ),
    "hosting": lambda method: HostingCenter(2, 30.0).plan(
        random_services(4, seed=0), method=method
    ),
    "cloud": lambda method: CloudProvider(2, 64.0).plan(
        random_portfolio(4, 64.0, seed=0), method=method
    ),
}


@pytest.fixture
def boom():
    def fn(problem, lin, ctx, seed):
        raise ValueError("bad input")

    register_solver("boom", fn, kind="extension", replace=True)
    yield "boom"
    unregister_solver("boom")


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_solver_error_keeps_its_own_message(planner, boom):
    with pytest.raises(ValueError, match="^bad input$"):
        PLANNERS[planner](boom)
