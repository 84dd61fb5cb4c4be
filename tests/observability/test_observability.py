"""Counters and sinks — the observability building blocks."""

import json

import pytest

from repro.observability import (
    Counters,
    EventSink,
    JsonlSink,
    MemorySink,
    TeeSink,
    tee_sinks,
)


# -- counters -----------------------------------------------------------------


def test_counters_mapping_semantics():
    c = Counters()
    with pytest.raises(KeyError):
        c["anything"]
    assert c.get("anything", 0) == 0
    c.add("a")
    c.add("a", 2)
    c.add("b", 5)
    assert c["a"] == 3 and c["b"] == 5
    assert set(c) == {"a", "b"}
    assert len(c) == 2
    assert c.snapshot() == {"a": 3, "b": 5}
    # snapshot is a copy, not a view
    snap = c.snapshot()
    c.add("a")
    assert snap["a"] == 3


def test_counters_reject_negative_increment():
    with pytest.raises(ValueError):
        Counters().add("x", -2)


def test_counters_merge():
    a, b = Counters(), Counters()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y", 3)
    a.merge(b)
    assert a.snapshot() == {"x": 3, "y": 3}


# -- sinks --------------------------------------------------------------------


def test_null_and_memory_sinks_satisfy_protocol():
    # The null sink is no sink at all: owners hold ``None`` and skip emitting.
    assert tee_sinks(None) is None
    assert isinstance(MemorySink(), EventSink)
    assert isinstance(TeeSink(MemorySink()), EventSink)


def test_tee_sinks_is_none_the_sink_or_a_tee_in_order():
    a, b = MemorySink(), MemorySink()
    assert tee_sinks() is None
    assert tee_sinks(None, None) is None
    assert tee_sinks(None, a) is a
    assert tee_sinks(a, None) is a
    both = tee_sinks(a, None, b)
    assert isinstance(both, TeeSink) and both.sinks == (a, b)
    both.emit({"type": "x"})
    assert list(a.events) == list(b.events) == [{"type": "x"}]


def test_memory_sink_filters_by_type():
    sink = MemorySink()
    sink.emit({"type": "span", "name": "a"})
    sink.emit({"type": "counters", "counters": {}})
    sink.emit({"type": "span", "name": "b"})
    assert [e["name"] for e in sink.of_type("span")] == ["a", "b"]
    assert len(sink.of_type("counters")) == 1


def test_jsonl_sink_writes_one_json_object_per_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        sink.emit({"type": "span", "name": "linearize", "seconds": 0.5})
        sink.emit({"type": "counters", "counters": {"alg2_heap_ops": 6}})
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    events = [json.loads(line) for line in lines]
    assert events[0]["name"] == "linearize"
    assert events[1]["counters"]["alg2_heap_ops"] == 6


def test_jsonl_sink_appends_and_accepts_file_objects(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        sink.emit({"k": 1})
    with JsonlSink(path) as sink:
        sink.emit({"k": 2})
    assert len(path.read_text().splitlines()) == 2

    import io

    buf = io.StringIO()
    JsonlSink(buf).emit({"k": 3})
    assert json.loads(buf.getvalue()) == {"k": 3}


def test_jsonl_sink_concurrent_emits_produce_whole_lines(tmp_path):
    """N threads × M events each → N*M complete, parseable lines."""
    import threading

    path = tmp_path / "concurrent.jsonl"
    sink = JsonlSink(path)
    n_threads, n_events = 8, 50

    def pump(tid):
        for k in range(n_events):
            sink.emit({"type": "span", "tid": tid, "k": k, "pad": "x" * 200})

    threads = [threading.Thread(target=pump, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    sink.close()
    lines = path.read_text().splitlines()
    assert len(lines) == n_threads * n_events
    events = [json.loads(line) for line in lines]  # every line parses whole
    seen = {(e["tid"], e["k"]) for e in events}
    assert len(seen) == n_threads * n_events


def test_jsonl_sink_reopens_after_close(tmp_path):
    """A path-backed sink accepts emits after close() by reopening in append."""
    path = tmp_path / "reopen.jsonl"
    sink = JsonlSink(path)
    sink.emit({"k": 1})
    sink.close()
    sink.emit({"k": 2})  # must not raise; reopens and appends
    sink.close()
    assert [json.loads(x)["k"] for x in path.read_text().splitlines()] == [1, 2]


def test_memory_sink_bounded_keeps_newest_and_counts_drops():
    sink = MemorySink(maxlen=3)
    for k in range(5):
        sink.emit({"type": "e", "k": k})
    assert [e["k"] for e in sink.events] == [2, 3, 4]
    assert sink.dropped == 2


def test_memory_sink_unbounded_never_drops():
    sink = MemorySink()
    for k in range(100):
        sink.emit({"k": k})
    assert len(sink.events) == 100 and sink.dropped == 0


def test_memory_sink_rejects_silly_maxlen():
    with pytest.raises(ValueError):
        MemorySink(maxlen=0)
