"""Typed metrics: exact sums, instruments, registry, exposition.

The load-bearing property is *exact mergeability*: histograms and
counters recorded in worker processes must fold into the caller's
registry so that the rendered values are bit-identical to a serial run —
the hypothesis tests below drive that for arbitrary observation splits.
"""

import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    DEFAULT_BUCKETS,
    Counter,
    ExactSum,
    Gauge,
    Histogram,
    MetricsRegistry,
    counters_to_snapshot,
    merge_snapshots,
    render_json,
    render_prometheus,
    strip_partials,
)

GOLDEN = Path(__file__).parent / "golden"

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


# -- ExactSum -----------------------------------------------------------------


def test_exact_sum_is_correctly_rounded():
    s = ExactSum()
    for _ in range(10):
        s.add(0.1)
    # Naive accumulation gives 0.9999999999999999; the exact sum rounds true.
    assert s.value == math.fsum([0.1] * 10)


def test_exact_sum_rejects_non_finite():
    with pytest.raises(ValueError):
        ExactSum().add(math.inf)


@given(st.lists(finite_floats, max_size=50), st.integers(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_exact_sum_merge_equals_single_stream(values, cut):
    cut = min(cut, len(values))
    whole = ExactSum(values)
    left, right = ExactSum(values[:cut]), ExactSum(values[cut:])
    left.merge(right)
    assert left.value == whole.value


def test_exact_sum_partials_canonical_over_permutations():
    """Fifteen insertion orders of these floats leave fifteen different
    internal expansions; the serialized partials are one list."""
    values = [0.1, 0.7, 29.3, 1e-16, 3.3, 2.1]
    expected = [35.5, 6.828670879282072e-16, -4.930380657631324e-32]
    for order in itertools.permutations(values):
        assert ExactSum(order).partials() == expected


@given(
    st.lists(finite_floats, max_size=30),
    st.randoms(use_true_random=False),
    st.lists(st.integers(min_value=0, max_value=30), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_exact_sum_partials_canonical_over_merge_trees(values, rng, cuts):
    """Any order and any tree of merges serializes the same partials: the
    correctly rounded value, then each rounded remainder, down to zero."""
    shuffled = list(values)
    rng.shuffle(shuffled)
    bounds = sorted({0, len(shuffled), *(min(c, len(shuffled)) for c in cuts)})
    sums = [ExactSum(shuffled[a:b]) for a, b in zip(bounds, bounds[1:])]
    while len(sums) > 1:  # merge random neighbours until one sum is left
        k = rng.randrange(len(sums) - 1)
        sums[k].merge(sums.pop(k + 1))
    merged = sums[0] if sums else ExactSum()
    canonical = ExactSum(values).partials()
    assert merged.partials() == canonical
    assert math.fsum(canonical) == merged.value
    assert all(abs(a) > abs(b) for a, b in zip(canonical, canonical[1:]))
    assert 0.0 not in canonical
    # Serialized partials reload to the same exact sum.
    assert ExactSum(canonical).partials() == canonical


# -- instruments ---------------------------------------------------------------


def test_counter_monotonic():
    c = Counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_aggregations():
    for agg, expect in (("last", 2.0), ("sum", 5.0), ("max", 3.0), ("min", 2.0)):
        a, b = Gauge("g", aggregation=agg), Gauge("g", aggregation=agg)
        a.set(3.0)
        b.set(2.0)
        a.merge(b.snapshot())
        assert a.value == expect, agg
    with pytest.raises(ValueError):
        Gauge("g", aggregation="median")


def test_gauge_merge_unset_is_noop_and_unset_target_adopts():
    a, b = Gauge("g", aggregation="min"), Gauge("g", aggregation="min")
    a.set(3.0)
    a.merge(b.snapshot())  # b never set → no-op
    assert a.value == 3.0
    c = Gauge("g", aggregation="min")
    c.merge(a.snapshot())  # c never set → adopts regardless of aggregation
    assert c.value == 3.0


def test_histogram_buckets_fixed_and_validated():
    h = Histogram("h")
    assert h.buckets == DEFAULT_BUCKETS
    with pytest.raises(ValueError):
        Histogram("h", buckets=[1.0, 1.0])
    with pytest.raises(ValueError):
        Histogram("h", buckets=[1.0, math.inf])
    with pytest.raises(ValueError):
        h.observe(math.nan)


def test_histogram_le_semantics_and_quantile():
    h = Histogram("h", buckets=[1.0, 2.0, 4.0])
    for v in (0.5, 1.0, 1.5, 8.0):
        h.observe(v)
    snap = h.snapshot()
    # le is inclusive: 1.0 lands in the first bucket; 8.0 overflows to +Inf.
    assert snap["counts"] == [2, 1, 0, 1]
    assert h.count == 4
    assert h.sum == pytest.approx(11.0)
    assert h.quantile(0.5) == 1.0
    assert h.quantile(1.0) == math.inf
    assert math.isnan(Histogram("e").quantile(0.5))


def test_histogram_merge_rejects_different_buckets():
    a = Histogram("h", buckets=[1.0, 2.0])
    b = Histogram("h", buckets=[1.0, 3.0])
    with pytest.raises(ValueError):
        a.merge(b.snapshot())


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40))
@settings(max_examples=100, deadline=None)
def test_histogram_merge_associative_commutative_bit_identical(values):
    """Any split of the observation stream merges to the same snapshot."""
    serial = Histogram("h")
    for v in values:
        serial.observe(v)
    for n_parts in (2, 3, 4):
        parts = [Histogram("h") for _ in range(n_parts)]
        for i, v in enumerate(values):
            parts[i % n_parts].observe(v)
        # Fold right-to-left to stress a different association order.
        merged = Histogram("h")
        for part in reversed(parts):
            merged.merge(part.snapshot())
        a, b = merged.snapshot(), serial.snapshot()
        assert a["counts"] == b["counts"]
        assert a["count"] == b["count"]
        assert a["sum"] == b["sum"]  # bit-identical, not approx


# -- registry -----------------------------------------------------------------


def test_registry_get_or_create_and_kind_mismatch():
    reg = MetricsRegistry()
    c1 = reg.counter("hits", help="h")
    c2 = reg.counter("hits")
    assert c1 is c2
    assert reg.counter("hits", op="x") is not c1  # distinct label set
    with pytest.raises(ValueError):
        reg.gauge("hits")
    assert len(reg) == 2


def test_registry_merge_creates_and_accumulates():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("n").inc(1)
    b.counter("n").inc(2)
    b.gauge("depth").set(7)
    b.histogram("lat", op="submit").observe(0.5)
    a.merge(b.snapshot())
    assert a.counter("n").value == 3.0
    assert a.gauge("depth").value == 7.0
    assert a.histogram("lat", op="submit").count == 1
    a.merge(b)  # merging the live registry works too
    assert a.counter("n").value == 5.0
    with pytest.raises(ValueError):
        a.merge({"format": "something-else"})


def test_registry_snapshot_order_independent_of_creation_order():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x").inc()
    a.counter("a").inc()
    b.counter("a").inc()
    b.counter("x").inc()
    assert [i["name"] for i in a.snapshot()["instruments"]] == ["a", "x"]
    assert a.snapshot() == b.snapshot()


# -- exposition ---------------------------------------------------------------


def _golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("aart_requests_total", help="Requests served.")
    c.inc(3)
    reg.gauge("aart_queue_depth", help="Pending mutations.").set(2)
    h = reg.histogram(
        "aart_latency_seconds",
        help="Request latency.",
        buckets=[0.001, 0.01, 0.1, 1.0],
        op="submit",
    )
    for v in (0.0005, 0.004, 0.004, 0.05, 3.0):
        h.observe(v)
    return reg


def test_prometheus_exposition_matches_golden():
    text = render_prometheus(_golden_registry().snapshot())
    golden = (GOLDEN / "exposition.prom").read_text()
    assert text == golden


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("c", path='a"b\\c').inc()
    text = render_prometheus(reg.snapshot())
    assert 'path="a\\"b\\\\c"' in text


def test_render_json_strips_partials_and_is_stable():
    snap = _golden_registry().snapshot()
    doc = json.loads(render_json(snap))
    assert doc["format"] == snap["format"]
    assert all("partials" not in inst for inst in doc["instruments"])
    assert strip_partials(snap)["instruments"] == doc["instruments"]
    # stripping does not mutate the original
    assert any("partials" in inst for inst in snap["instruments"])


def test_counters_to_snapshot_and_merge_snapshots():
    counters = {"steps": 4, "arrivals": 9}
    snap = counters_to_snapshot(counters)
    names = [i["name"] for i in snap["instruments"]]
    assert names == ["aart_arrivals_total", "aart_steps_total"]
    reg = MetricsRegistry()
    reg.gauge("aart_depth").set(1)
    combined = merge_snapshots(reg.snapshot(), snap)
    assert [i["name"] for i in combined["instruments"]] == [
        "aart_arrivals_total",
        "aart_depth",
        "aart_steps_total",
    ]
    text = render_prometheus(combined)
    assert "aart_steps_total 4" in text
    with pytest.raises(ValueError):
        merge_snapshots({"format": "nope"})
