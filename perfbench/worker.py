"""One workload in one fresh process; prints one JSON result line.

Started by ``run.py``, which passes the wall-clock time it spawned this
process, so ``setup_s`` covers interpreter start, imports, input
generation and the warm fill.  With ``--setup-only`` the process stops
after set-up and reports just that time.  When the program raises during
the timed run (or the traced replays before it), the last line names the
exception and the exit code is :data:`RAISED`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Exit code when the program under test raised during the timed run.
RAISED = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads
    from layers import layer_metrics
    from spans import SpanLog

    wl = workloads.WORKLOADS[args.workload](
        seed=args.seed, seconds=args.seconds, rate=args.rate, block=args.block,
        tiny=args.tiny,
    )
    try:
        wl.setup()
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        log = None
        overhead = None
        try:
            if args.trace:
                untraced = wl.replay(None)
                log = SpanLog()
                log.install()
                traced = wl.replay(log)
                log.reset()
                overhead = traced / untraced
            outcome = wl.run(log)
        except Exception as exc:  # a fault of the program, not of the set-up
            traceback.print_exc()
            print(f"{args.workload}: the timed run raised {type(exc).__name__}: {exc}")
            return RAISED
    finally:
        wl.close()
    result = {
        "setup_s": setup_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "ops_per_s": outcome.ops_per_s,
        "latencies_s": outcome.latencies_s,
        "utility_ratio": outcome.utility_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": outcome.samples,
        "violations": outcome.violations,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if log is not None:
        extras = {**outcome.extras, **wl.layer_extras(), "overhead_ratio": overhead}
        result["layers"] = layer_metrics(log, outcome.ops, extras)
        log.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        log.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
