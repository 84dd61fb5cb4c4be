#!/usr/bin/env python3
"""Array-first backend smoke run (also the CI batch job).

Drives one Section VII sweep point through both execution paths of the
experiment harness and verifies the oracle-equivalence contract from the
outside:

* ``backend="batch"`` and ``backend="scalar"`` produce the **same utility
  matrix, bit for bit** (``rtol=0`` — the batch backend is a pure
  throughput decision);
* engine counters agree after removing the batch path's routing counters
  (``batch_trials`` / ``batch_fallbacks``);
* the same holds at a power-law (fig2a) point with β = 15, whose randomly
  assigned servers are uneven: the water-fill shrinks to the pools still
  searching, and the random splits sort cut segments of many sizes;
* the α-certificate holds on the batch path: every trial's reclaimed
  ALG2 utility is at least ``2(√2−1)`` times its super-optimal bound;
* the fig2a point run over two worker processes gives the serial run's
  utility matrix, ``tobytes()``-equal: each chunk rebuilds its trials'
  random streams from the seed description it was shipped;
* a pchip (``GenericBatch``) point falls back to the scalar loop under
  ``backend="auto"`` and still matches a forced-scalar run.

Exits non-zero on any violated invariant.

Run:  PYTHONPATH=src python examples/batch_backend_smoke.py
"""

import sys

import numpy as np

from repro.core.problem import ALPHA
from repro.engine import LinearizationCache, SolveContext
from repro.experiments.figures import FIGURES
from repro.experiments.harness import run_point_arrays
from repro.workloads.generators import UniformDistribution

POINT = dict(dist=UniformDistribution(), n_servers=8, beta=6.0,
             capacity=1000.0, trials=50, seed=7)
ROUTING = ("batch_trials", "batch_fallbacks")


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def compare_backends(point: dict) -> tuple[list, np.ndarray]:
    """Run ``point`` on both backends; fail unless utilities and counters agree."""
    ctx_s = SolveContext(cache=LinearizationCache())
    names_s, utils_s = run_point_arrays(**point, ctx=ctx_s, backend="scalar")
    ctx_b = SolveContext(cache=LinearizationCache())
    names_b, utils_b = run_point_arrays(**point, ctx=ctx_b, backend="batch")

    if names_s != names_b:
        fail(f"contender sets diverged: {names_s} vs {names_b}")
    if not np.array_equal(utils_s, utils_b):
        worst = float(np.max(np.abs(utils_s - utils_b)))
        fail(f"utility matrices differ (max abs diff {worst:.3e})")
    print(f"bit-identical across backends: {utils_b.shape[0]} trials x "
          f"{utils_b.shape[1]} contenders")

    snap_s = {k: v for k, v in ctx_s.counters.snapshot().items() if k not in ROUTING}
    snap_b = {k: v for k, v in ctx_b.counters.snapshot().items() if k not in ROUTING}
    if snap_s != snap_b:
        fail(f"counters diverged: {snap_s} vs {snap_b}")
    if ctx_b.counters.snapshot().get("batch_trials") != point["trials"]:
        fail("batch backend did not record one batch_trials per trial")
    print(f"per-trial-equivalent counters OK ({len(snap_b)} counters)")
    return names_b, utils_b


def main() -> None:
    names_b, utils_b = compare_backends(POINT)

    so = utils_b[:, names_b.index("SO")]
    alg2 = utils_b[:, names_b.index("ALG2")]
    if not np.all(alg2 >= ALPHA * so * (1.0 - 1e-12)):
        fail("alpha certificate violated on the batch path")
    print(f"alpha certificate OK (worst ratio {float(np.min(alg2 / so)):.4f} "
          f">= {ALPHA:.4f})")

    # pchip (GenericBatch) solves at scalar-Python speed; a small trial
    # count keeps the fallback check snappy.
    pchip_point = {**POINT, "trials": 8, "beta": 3.0}
    ctx_p = SolveContext()
    names_p, utils_p = run_point_arrays(**pchip_point, interpolator="pchip",
                                        ctx=ctx_p, backend="auto")
    names_ps, utils_ps = run_point_arrays(**pchip_point, interpolator="pchip",
                                          backend="scalar")
    if ctx_p.counters.snapshot().get("batch_fallbacks") != pchip_point["trials"]:
        fail("pchip point did not fall back to the scalar loop")
    if not np.array_equal(utils_p, utils_ps):
        fail("pchip fallback diverged from forced-scalar run")
    print("pchip fallback OK (auto routed every trial to the scalar loop)")

    dist, beta = FIGURES["fig2a"].factory(15)
    fig2a = {**POINT, "dist": dist, "beta": beta}
    names_f, utils_f = compare_backends(fig2a)
    print("power-law beta=15 point OK")
    names_j, utils_j = run_point_arrays(**fig2a, n_jobs=2, chunksize=16)
    if names_j != names_f or utils_j.tobytes() != utils_f.tobytes():
        fail("two-worker fig2a point diverged from the serial run")
    print("two-worker fig2a point tobytes()-equal to serial")

    print("batch backend smoke OK")


if __name__ == "__main__":
    main()
