"""Shared helpers for the benchmark suite.

Every ``bench_fig*.py`` regenerates one panel of the paper's evaluation:
it runs the figure's sweep (at ``AART_BENCH_TRIALS`` trials per point,
default 25 — the paper uses 1000; raise the env var for publication-grade
statistics), prints the same ratio series the paper plots, and asserts the
paper's qualitative shape claims.  Timings are recorded by pytest-benchmark
around the full sweep.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.figures import expected_shape_violations, run_figure
from repro.experiments.report import series_table

#: Trials per sweep point; paper uses 1000.
TRIALS = int(os.environ.get("AART_BENCH_TRIALS", "25"))

#: Root seed for all benches (reproducible series).
SEED = int(os.environ.get("AART_BENCH_SEED", "0"))

#: Worker processes per sweep point (-1 = all cores).  The series are
#: bit-identical for any value; raise it to regenerate panels faster.
JOBS = int(os.environ.get("AART_BENCH_JOBS", "1"))

#: Quick mode (CI smoke): fewer trials, relaxed throughput assertions.
QUICK = os.environ.get("AART_BENCH_QUICK", "0") not in ("", "0", "false")

#: Where benches write their records.  Quick runs (cut-down sizes and
#: trial counts) go to the git-ignored ``quick/`` directory, so a local quick
#: run never replaces a committed full-mode record.
RESULTS_DIR = Path(__file__).resolve().parent / ("quick" if QUICK else "")

#: Machine-readable headline results, shared across benches.
HEADLINE_PATH = RESULTS_DIR / "BENCH_headline.json"


def append_headline_record(name: str, record: dict) -> Path:
    """Merge one named record into ``BENCH_headline.json``.

    Re-running a bench replaces its own record and leaves the others in
    place, so the file accumulates the newest number from every headline
    bench instead of growing without bound.
    """
    doc: dict = {"format": "aart-bench-headline/1", "records": {}}
    if HEADLINE_PATH.exists():
        try:
            existing = json.loads(HEADLINE_PATH.read_text())
        except json.JSONDecodeError:
            existing = {}
        if existing.get("format") == doc["format"]:
            doc["records"].update(existing.get("records", {}))
    doc["records"][name] = record
    HEADLINE_PATH.parent.mkdir(exist_ok=True)
    HEADLINE_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    return HEADLINE_PATH


def run_panel(benchmark, figure_id: str, x_label: str):
    """Benchmark one figure panel, print its series, check its shape."""
    points = benchmark.pedantic(
        run_figure,
        args=(figure_id,),
        kwargs={"trials": TRIALS, "seed": SEED, "n_jobs": JOBS},
        rounds=1,
        iterations=1,
    )
    print(f"\n=== {figure_id}: paper-series reproduction ===")
    print(series_table(points, x_label=x_label))
    violations = expected_shape_violations(figure_id, points)
    assert violations == [], "\n".join(violations)
    return points
