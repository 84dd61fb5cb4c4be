"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from repro.core.problem import ALPHA  # noqa: E402
from repro.service import QueryAssignment, RemoveThread, Response, SubmitThread  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


# -- BENCHMARK.json agrees with the code ----------------------------------------


def test_metric_lists_match_the_code():
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)
    # fleet_tcp stays runnable but out of BENCHMARK.json until the seed
    # defect test_placement_gain_is_never_negative shows is fixed.
    assert {w["name"] for w in SPEC["workloads"]} == set(run.THROUGHPUT) - {"fleet_tcp"}


def test_bounds_and_rates_are_stated_once():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    args = run._args(SPEC["command"][2:] + ["--workload", "churn", "--seed", "0",
                                            "--seconds", "1"])
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert f"Poisson {args.churn_rate:g}/s" in why["churn"]
    assert f"blocks of {args.block}" in why["churn"]


# -- every workload, tiny ---------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.THROUGHPUT))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace",
                str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", "churn", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_run_that_raises_is_a_check_failure(monkeypatch, capsys):
    import worker
    import workloads

    class Raising(workloads.BigSolve):
        def run(self, log=None):
            raise ConnectionError("server closed the connection mid-response")

    monkeypatch.setitem(workloads.WORKLOADS, "raising", Raising)
    code = worker.main(["--workload", "raising", "--seed", "1", "--seconds", "1",
                        "--spawned-at", "0", "--rate", "0", "--block", "1", "--tiny"])
    assert code == worker.RAISED
    assert "raised ConnectionError" in capsys.readouterr().out.splitlines()[-1]


# -- the checks reject corrupted results ------------------------------------------


def test_checks_accept_a_good_result():
    assert checks.check_loads([0, 1, 1], [1000.0, 400.0, 600.0], 2, 1000.0, "x") == []
    assert checks.check_responses([Response.success("submit")], "x") == []
    assert checks.check_ratio(0.99, ALPHA, "x") == []


def test_checks_reject_an_allocation_above_capacity():
    assert checks.check_loads([0, 1, 1], [1000.0, 400.0, 600.1], 2, 1000.0, "x")
    assert checks.check_loads([0, 2], [1.0, 1.0], 2, 1000.0, "x")
    assert checks.check_loads([0, 1], [-1.0, 1.0], 2, 1000.0, "x")


def test_checks_reject_a_failed_response():
    responses = [Response.success("submit"), Response.failure("remove", "unknown thread")]
    assert checks.check_responses(responses, "x")


def test_checks_reject_bad_trials_and_drift():
    names = ("SO", "ALG2")
    good = np.array([[10.0, 9.9], [5.0, 5.0]])
    assert checks.check_trial_bounds(names, good, ALPHA, "x") == []
    above = np.array([[10.0, 10.5]])
    below = np.array([[10.0, 8.0]])
    assert checks.check_trial_bounds(names, above, ALPHA, "x")
    assert checks.check_trial_bounds(names, below, ALPHA, "x")
    drifted = good.copy()
    drifted[0, 1] = np.nextafter(drifted[0, 1], 0.0)
    assert checks.check_identical(good, drifted, "x")
    assert checks.check_ratio(0.8, ALPHA, "x") and checks.check_ratio(None, ALPHA, "x")
    assert checks.check_count(128, 127, "x")


def test_churn_check_rejects_a_corrupted_state():
    import workloads

    wl = workloads.Churn(seed=2, seconds=0.4, rate=50.0, block=4, tiny=True)
    wl.setup()
    outcome = wl.run()
    assert outcome.violations == []
    scheduler = wl.service.state.scheduler
    tid = scheduler.thread_ids[0]
    scheduler._alloc_of[tid] = 2 * scheduler.capacity
    assert any("exceeds C" in v for v in wl.check(wl.trace.sent()))


# -- the load generator and the spans -----------------------------------------------


def test_request_stream_never_targets_a_thread_its_batch_changes():
    stream = loadgen.RequestStream(np.random.default_rng(0), loadgen.FLEET_MIX)
    for _ in range(48):
        stream.submit()
    requests = stream.take(4000)
    block = 12  # larger than any batch the open loop forms at the seed
    for start in range(len(requests) - block):
        window = requests[start:start + block]
        submitted = {r.thread_id for r in window if isinstance(r, SubmitThread)}
        removed = {r.thread_id for r in window if isinstance(r, RemoveThread)}
        read = {r.thread_id for r in window if isinstance(r, QueryAssignment) and r.thread_id}
        assert not removed & submitted
        assert not read & removed


def test_self_time_excludes_children():
    log = spans.SpanLog()

    def inner():
        sum(range(20000))

    outer = log.wrap("outer", lambda: [log.wrap("inner", inner)() for _ in range(3)])
    log.op = 0
    outer()
    totals = log.totals()
    assert totals["inner"]["calls"] == 3
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["dur_s"] - totals["inner"]["dur_s"], abs=1e-12
    )


def test_install_and_uninstall_restore_every_name():
    import importlib

    from repro.engine import get_solver

    def current():
        out = []
        for module, path, _name, *_ in spans.PATCHES + spans.VALUED_PATCHES:
            owner = importlib.import_module(module)
            for part in path.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out + [get_solver("alg2").batch_fn, get_solver("UU").batch_fn]

    before = current()
    log = spans.SpanLog()
    log.install()
    assert all(a is not b for a, b in zip(before, current()))
    log.uninstall()
    assert all(a is b for a, b in zip(before, current()))


# -- a program defect the fleet_tcp workload exposes ---------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "placement_gain can return -4.4e-16 for a thread that gets no share; "
    "AdmissionPolicy's floor of 0 then refuses it, and a refused fleet "
    "migration rollback raises RuntimeError in the TCP connection thread"
))
def test_placement_gain_is_never_negative():
    from repro.extensions.online import OnlineScheduler

    utilities = loadgen.paper_utilities(np.random.default_rng(2), 400)[:204]
    scheduler = OnlineScheduler(4, loadgen.CAPACITY)
    for k, utility in enumerate(utilities[:-1]):
        scheduler.add_thread(f"t{k}", utility)
    _, gain = scheduler.placement_gain(utilities[-1])
    assert gain >= 0.0
