"""The repository benchmark: one workload per invocation, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --churn-rate 50 --fleet-rate 50 --block 16 \
        --workload churn --seed 1 --seconds 30 --trace 0

Workloads: ``sweep``, ``churn``, ``bigsolve`` and ``fleet_tcp`` (see
``perfbench/README.md``); ``BENCHMARK.json`` holds the command with the
rates and block size, and lists all but ``fleet_tcp``, which fails at the
seed commit (see the README's "Known failure at the seed").  The workload runs in a fresh child process
(``perfbench/worker.py``); set-up alone runs twice more in further fresh
processes, and ``setup_s`` is the median of the three.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  The exit code is 1 when an output
check fails or the program raises during the timed run (then no result line
is printed), and 2 when the workload cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
from layers import UNITS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: (name, unit) of every end-to-end metric in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("utility_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: End-to-end metrics that are reported but carry no bound: the spread of
#: p50_ms and p99_ms over seeded runs of churn and fleet_tcp exceeds the
#: largest bound allowed (0.25) on a shared 2-core host, and fail_ratio is
#: 0 at the seed.
REPORTED = (("p50_ms", "ms"), ("p99_ms", "ms"), ("fail_ratio", "ratio"))

#: What ``ops_per_s`` counts on each workload (its name in the report).
THROUGHPUT = {
    "sweep": "trials_per_s",
    "bigsolve": "threads_per_s",
    "churn": "sat_rps",
    "fleet_tcp": "sat_rps",
}

#: Wall-clock limit of one invocation: every run must end within 180 s.
LIMIT_S = 170.0

#: Set-ups measured per invocation; ``setup_s`` is their median.
SETUP_RUNS = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(THROUGHPUT))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--churn-rate", type=float, required=True,
                   help="offered open-loop rate of churn, requests/s")
    p.add_argument("--fleet-rate", type=float, required=True,
                   help="offered open-loop rate of fleet_tcp, requests/s")
    p.add_argument("--block", type=int, required=True,
                   help="requests per block in the backlogged phase")
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for testing the benchmark itself")
    return p.parse_args(argv)


def _worker(args, deadline: float, setup_only: bool) -> dict:
    """Run the worker once; its last stdout line is its JSON result."""
    rate = {"churn": args.churn_rate, "fleet_tcp": args.fleet_rate}.get(args.workload, 0.0)
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--rate", str(rate),
        "--block", str(args.block), "--spawned-at", repr(time.time()),
    ]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode == worker.RAISED:
        print(f"perfbench {args.workload} seed={args.seed}: {_loop(args)}")
        print(f"  CHECK FAILED: {proc.stdout.strip().splitlines()[-1]}")
        raise SystemExit(1)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    """``git rev-parse HEAD`` of the checkout, or "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _loop(args) -> str:
    if args.workload == "churn":
        return f"open loop, Poisson {args.churn_rate:g}/s; then backlogged blocks of {args.block}"
    if args.workload == "fleet_tcp":
        return f"open loop, Poisson {args.fleet_rate:g}/s; then backlogged blocks of {args.block}"
    if args.workload == "sweep":
        return "closed loop, whole passes over the points"
    return "closed loop, whole rounds back to back"


def main(argv=None) -> int:
    args = _args(argv)
    deadline = time.monotonic() + LIMIT_S
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setups = [_worker(args, deadline, True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    res = _worker(args, deadline, False)
    setups.append(res["setup_s"])

    lat_ms = [s * 1e3 for s in res["latencies_s"]]
    attempted, failed = res["attempted"], res["failed"]
    named = THROUGHPUT[args.workload]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops_per_s"],
        named: res["ops_per_s"],
        "utility_ratio": res["utility_ratio"],
        "peak_rss_mb": res["peak_rss_mb"],
        "p50_ms": percentile(lat_ms, 50),
        "p99_ms": percentile(lat_ms, 99),
        "fail_ratio": failed / attempted,
    }
    units = {**dict(END_TO_END + REPORTED), named: "1/s"}
    violations = res["violations"]
    correct = not violations and failed == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {_loop(args)}")
    if args.trace:
        for name, value in res["layers"].items():
            print(f"  {name:<44} {value:14.6g} {UNITS[name]}")
    else:
        for name, value in values.items():
            print(f"  {name:<14} {value:14.6g} {units[name]}")
        print(f"  ops_per_s is {named}; {len(lat_ms)} latency samples, "
              f"{len(setups)} set-ups, {failed} of {attempted} operations failed")
    for v in violations:
        print(f"  CHECK FAILED: {v}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "loop": _loop(args),
        "reported": {name: values[name] for name in units if name not in dict(END_TO_END)},
        "samples": {**res["samples"], "latencies": len(lat_ms), "setups": len(setups)},
        "setup_s_all": setups,
        "env": {**res["env"], "git_sha": _git_sha()},
    }
    print(json.dumps({"detail": detail}))
    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
