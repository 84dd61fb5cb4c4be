"""Call-graph invariants: synthetic modules (hypothesis) and the real tree."""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.base import ModuleInfo, Project
from repro.checks.runner import discover_files, load_module

REPO = Path(__file__).resolve().parents[2]


def make_project(sources):
    """Build a Project from {module_tail: source} under a synthetic package."""
    modules = []
    for tail, source in sources.items():
        relpath = f"src/repro/synth/{tail}.py"
        modules.append(
            ModuleInfo(
                path=REPO / relpath,
                relpath=relpath,
                source=source,
                tree=ast.parse(source),
            )
        )
    return Project(modules)


# --------------------------------------------------------------- hypothesis

#: index of the module each function lives in, for up to 3 modules.
_N_MODULES = 3
_FN_NAMES = [f"fn_{i}" for i in range(6)]


@st.composite
def call_topologies(draw):
    """A random function-per-module layout plus a random call relation."""
    homes = {name: draw(st.integers(0, _N_MODULES - 1)) for name in _FN_NAMES}
    calls = {
        name: draw(st.lists(st.sampled_from(_FN_NAMES), max_size=4, unique=True))
        for name in _FN_NAMES
    }
    return homes, calls


def render_sources(homes, calls):
    """Emit one source file per module, importing cross-module callees."""
    sources = {}
    for mod_idx in range(_N_MODULES):
        local = [n for n, home in homes.items() if home == mod_idx]
        lines = []
        imported = set()
        for name in local:
            for callee in calls[name]:
                target = homes[callee]
                if target != mod_idx and callee not in imported:
                    lines.append(f"from repro.synth.m{target} import {callee}")
                    imported.add(callee)
        for name in local:
            lines.append(f"def {name}():")
            body = [f"    {callee}()" for callee in calls[name]]
            lines.extend(body or ["    pass"])
        sources[f"m{mod_idx}"] = "\n".join(lines) + "\n"
    return sources


@settings(max_examples=30, deadline=None)
@given(call_topologies())
def test_every_resolved_edge_points_at_a_real_def(topology):
    homes, calls = topology
    project = make_project(render_sources(homes, calls))
    graph = project.callgraph()
    for caller, sites in graph.edges.items():
        assert caller in graph.functions
        for site in sites:
            assert site.caller == caller
            assert site.callee in graph.functions


@settings(max_examples=30, deadline=None)
@given(call_topologies())
def test_generated_calls_are_all_recovered(topology):
    homes, calls = topology
    project = make_project(render_sources(homes, calls))
    graph = project.callgraph()
    for name, callees in calls.items():
        caller = f"repro.synth.m{homes[name]}.{name}"
        found = {site.callee for site in graph.callees(caller)}
        expected = {f"repro.synth.m{homes[c]}.{c}" for c in callees}
        assert found == expected


# ------------------------------------------------------- targeted resolution


def test_self_method_and_class_instantiation_resolve():
    project = make_project(
        {
            "obj": (
                "class Worker:\n"
                "    def run(self):\n"
                "        self.step()\n"
                "    def step(self):\n"
                "        pass\n"
                "def main():\n"
                "    w = Worker()\n"
                "    w.run()\n"
            )
        }
    )
    graph = project.callgraph()
    run = "repro.synth.obj.Worker.run"
    assert {s.callee for s in graph.callees(run)} == {"repro.synth.obj.Worker.step"}
    main_edges = {s.callee for s in graph.callees("repro.synth.obj.main")}
    assert "repro.synth.obj.Worker.__init__" not in main_edges  # no __init__ def
    assert run in main_edges  # local-var type flows from the constructor call


def test_registered_solvers_and_lambda_entries_are_recovered():
    project = make_project(
        {
            "solvers": (
                "from repro.engine.registry import attach_batch_fn, register_solver\n"
                "def fast(problem):\n"
                "    return problem\n"
                "def _impl(problem):\n"
                "    return problem\n"
                "def batched(problems):\n"
                "    return problems\n"
                'register_solver("fast", fast)\n'
                'register_solver("slow", lambda problem: _impl(problem))\n'
                'attach_batch_fn("fast", batched)\n'
            )
        }
    )
    graph = project.callgraph()
    assert set(graph.registered_entries) == {
        "repro.synth.solvers._impl",
        "repro.synth.solvers.batched",
        "repro.synth.solvers.fast",
    }


# -------------------------------------------------------------- real tree


def load_src_project():
    files = discover_files([REPO / "src"], root=REPO)
    return Project([load_module(path, REPO) for path in files])


def test_real_tree_edges_and_registrations_are_well_formed():
    graph = load_src_project().callgraph()
    assert graph.functions and graph.edges
    for caller, sites in graph.edges.items():
        assert caller in graph.functions
        for site in sites:
            assert site.callee in graph.functions
    # Every dynamically registered solver (and batch twin) is a real def:
    # the dispatch through the registry must never dangle.
    assert graph.registered_entries
    for entry in graph.registered_entries:
        assert entry in graph.functions
    shipped = {entry.rsplit(".", 2)[-2:][0] for entry in graph.registered_entries}
    assert {"algorithm1", "algorithm2"} <= shipped
    # alg2's batch twin is attached to the alg2 spec, not registered by name.
    assert "repro.core.algorithm2_batch._batch_fn" in graph.registered_entries


def test_real_tree_transport_protocols_are_detected():
    graph = load_src_project().callgraph()
    protos = {qual.rsplit(".", 1)[-1] for qual in graph.protocols}
    assert {"RequestProcessor", "Introspectable"} <= protos
    for proto, impls in graph.implementations.items():
        assert proto in graph.protocols
        for impl in impls:
            assert impl in graph.classes
