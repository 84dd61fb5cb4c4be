"""Per-layer metrics of a traced pass, normalised per operation.

An operation is a trial (``sweep``), an instance (``bigsolve``) or a
request (``churn``, ``fleet_tcp``).  ``<layer>.self_us`` is the layer's
span time minus the time its child spans cover, in microseconds per
operation; ``<layer>.calls`` counts calls per operation.  Layers a
workload never enters report 0.
"""

from __future__ import annotations

from spans import OP, SpanLog

#: Layers reported as ``<name>.self_us``.
SELF_US = (
    "workloads.generate",
    "core.linearize_batch",
    "core.algorithm2_batch",
    "core.reclaim_batch",
    "allocation.water_fill_batch",
    "assign.heuristics_batch",
    "experiments.run_point_arrays",
    "core.linearize",
    "core.algorithm2",
    "core.reclaim",
    "core.solve",
    "allocation.price_discovery",
    "allocation.water_fill",
    "extensions.online.placement_gain",
    "extensions.online.total_utility",
    "extensions.online.rebalance",
    "service.server.process",
    "service.server.step",
    "observability.metrics",
    "service.api.codec",
    "service.fleet.process",
    "service.fleet.route",
    "service.fleet.certify",
    "service.fleet.rebalance",
)

#: Layers reported as ``<name>.calls``.
CALLS = (
    "core.linearize",
    "allocation.water_fill",
    "extensions.online.placement_gain",
    "extensions.online.total_utility",
    "extensions.online.problem",
    "extensions.online.rebalance",
    "service.fleet.rebalance",
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    *((f"{name}.self_us", "us", "lower") for name in SELF_US),
    *((f"{name}.calls", "count", "lower") for name in CALLS),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("extensions.online.rebalance.applied_ratio", "ratio", "higher"),
    ("service.server.batch_size.mean", "count", "higher"),
    ("service.server.wait_ms.p50", "ms", "lower"),
    ("service.server.wait_ms.p99", "ms", "lower"),
    ("service.api.bytes_per_request", "B", "lower"),
    ("service.transport.overhead_ms.p50", "ms", "lower"),
    ("service.transport.coalesce_wait_ms.p50", "ms", "lower"),
    ("service.fleet.shard_calls", "count", "lower"),
    ("service.fleet.migrations", "count/1k", "lower"),
    ("unattributed.self_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    rank = max(1, -(-len(xs) * q // 100))  # ceil without float rounding
    return float(xs[int(rank) - 1])


def layer_metrics(log: SpanLog, n_ops: int, extras: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans of one traced pass.

    ``extras`` carries what the spans cannot: ``cache`` (hits, misses),
    ``waits_s`` (send minus intended time per request), ``processor``
    (span name of the object behind the transport), ``coalesce_total_s``
    and ``coalesce_p50_s`` (the TCP server's coalescing waits), ``fleet``
    (bool), ``migrations`` and ``overhead_ratio``.
    """
    totals = log.totals()
    per_op = 1.0 / max(n_ops, 1)

    def total(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    out: dict[str, float] = {}
    for name in SELF_US:
        out[f"{name}.self_us"] = total(name, "self_s") * per_op * 1e6
    for name in CALLS:
        out[f"{name}.calls"] = total(name, "calls") * per_op
    hits, misses = extras.get("cache", (0, 0))
    out["engine.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    replans = total("extensions.online.rebalance", "calls")
    out["extensions.online.rebalance.applied_ratio"] = (
        total("extensions.online.rebalance", "value") / replans if replans else 0.0
    )
    # A call with an empty queue is a no-op, not a step.
    sizes = [n for n in log.values("service.server.step") if n]
    out["service.server.batch_size.mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    waits_ms = [w * 1e3 for w in extras.get("waits_s", ())]
    out["service.server.wait_ms.p50"] = percentile(waits_ms, 50)
    out["service.server.wait_ms.p99"] = percentile(waits_ms, 99)
    out["service.api.bytes_per_request"] = total("service.transport.encode", "value") * per_op
    processor = extras.get("processor")
    if processor is not None:
        served = log.per_op(processor)
        overheads = [(d - served.get(op, 0.0)) * 1e3 for op, d in log.per_op(OP).items()]
    else:
        overheads = []
    out["service.transport.overhead_ms.p50"] = percentile(overheads, 50)
    out["service.transport.coalesce_wait_ms.p50"] = extras.get("coalesce_p50_s", 0.0) * 1e3
    fleet = extras.get("fleet", False)
    out["service.fleet.shard_calls"] = (
        total("service.transport.inproc", "calls") * per_op if fleet else 0.0
    )
    out["service.fleet.migrations"] = extras.get("migrations", 0) * per_op * 1e3
    covered = sum(acc["self_s"] for name, acc in totals.items() if name != OP)
    residual = total(OP, "dur_s") - covered - extras.get("coalesce_total_s", 0.0)
    out["unattributed.self_us"] = residual * per_op * 1e6
    out["trace.overhead_ratio"] = extras.get("overhead_ratio", 0.0)
    return out
