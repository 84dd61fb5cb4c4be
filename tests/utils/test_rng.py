"""Seed coercion, child-generator spawning and trial lanes.

The lane tests hold :class:`~repro.utils.rng.TrialStreams` to NumPy's own
generators bit for bit: spawned states against ``default_rng(child)``, and
every chunk draw against the per-lane calls it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import sweep_point_seeds
from repro.utils.rng import LaneSeeds, TrialStreams, as_generator, spawn_generators


def test_none_gives_generator():
    assert isinstance(as_generator(None), np.random.Generator)


def test_int_seed_is_reproducible():
    a = as_generator(7).uniform(size=5)
    b = as_generator(7).uniform(size=5)
    assert np.array_equal(a, b)


def test_generator_passes_through():
    g = np.random.default_rng(0)
    assert as_generator(g) is g


def test_seedsequence_accepted():
    seq = np.random.SeedSequence(5)
    g = as_generator(seq)
    assert isinstance(g, np.random.Generator)


def test_spawn_count():
    assert len(spawn_generators(0, 7)) == 7


def test_spawn_reproducible():
    a = [g.uniform() for g in spawn_generators(3, 4)]
    b = [g.uniform() for g in spawn_generators(3, 4)]
    assert a == b


def test_spawn_children_differ():
    vals = [g.uniform() for g in spawn_generators(3, 10)]
    assert len(set(vals)) == 10


def test_spawn_from_generator():
    g = np.random.default_rng(1)
    children = spawn_generators(g, 3)
    assert len(children) == 3


def test_spawn_negative_raises():
    with pytest.raises(ValueError):
        spawn_generators(0, -1)


def test_spawn_zero_is_empty():
    assert spawn_generators(0, 0) == []


# -- trial lanes: exact against NumPy's own generators ------------------------

_ENTROPY = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**64, 2**130),
    st.lists(st.integers(0, 2**70), min_size=0, max_size=6),
)


def _states(gens):
    """Comparable bit generator states.  With no pending half, the buffered
    word is stale (NumPy never reads it again), so it is left out."""
    out = []
    for g in gens:
        state = g.bit_generator.state
        if state.get("has_uint32") == 0:
            state["uinteger"] = 0
        out.append(repr(state))
    return out


def _lanes(streams):
    return [streams.generator(t) for t in range(len(streams))]


def _reference(entropy, spawn_key=(), pool_size=4, skip=0, n=0):
    root = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
    return [np.random.default_rng(child) for child in root.spawn(skip + n)[skip:]]


@settings(max_examples=40, deadline=None)
@given(entropy=_ENTROPY, n=st.integers(0, 2000))
def test_spawned_lanes_equal_default_rng_children(entropy, n):
    assert _states(_lanes(TrialStreams.spawn(entropy, n))) == _states(
        _reference(entropy, n=n)
    )


@settings(max_examples=40, deadline=None)
@given(
    entropy=_ENTROPY,
    spawn_key=st.lists(st.integers(0, 2**40), max_size=3),
    pool_size=st.sampled_from([4, 5, 8]),
    skip=st.integers(0, 50),
    n=st.integers(0, 60),
)
def test_lanes_of_prespawned_and_nested_roots(entropy, spawn_key, pool_size, skip, n):
    root = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key), pool_size=pool_size)
    root.spawn(skip)
    got = _states(_lanes(TrialStreams.spawn(root, n)))
    assert got == _states(_reference(entropy, tuple(spawn_key), pool_size, skip, n))
    assert root.n_children_spawned == skip + n


def test_lanes_from_none_and_generator_entropy():
    seeds = LaneSeeds.claim(None, 7)
    got = _states(_lanes(TrialStreams.from_seeds(seeds)))
    assert got == _states(_reference(seeds.entropy, n=7))
    words = np.random.default_rng(9).integers(0, 2**63 - 1, size=4).tolist()
    got = _states(_lanes(TrialStreams.spawn(np.random.default_rng(9), 7)))
    assert got == _states(_reference(words, n=7))


def test_passed_seed_sequence_advances_by_n():
    root = np.random.SeedSequence(3)
    first = _states(_lanes(TrialStreams.spawn(root, 4)))
    second = _states(_lanes(TrialStreams.spawn(root, 4)))
    assert root.n_children_spawned == 8
    assert first + second == _states(_reference(3, n=8))


def test_split_chunks_rebuild_the_same_lanes():
    seeds = LaneSeeds.claim([5, 1, 3], 23)
    chunks = seeds.split(5)
    assert [c.count for c in chunks] == [5, 5, 5, 5, 3]
    rebuilt = [g for c in chunks for g in _lanes(TrialStreams.from_seeds(c))]
    assert _states(rebuilt) == _states(_lanes(TrialStreams.from_seeds(seeds)))


@pytest.mark.parametrize("salt", [(), (71,), (72, 5)])
def test_entropy_list_claims_the_seed_sequences_lanes(salt):
    for k, point in enumerate(sweep_point_seeds(4, 3, *salt)):
        assert point == [4, *salt, k]
        via_root = LaneSeeds.claim(np.random.SeedSequence(point), 17)
        assert np.array_equal(LaneSeeds.claim(point, 17).state_words(),
                              via_root.state_words())


_HIGHS = st.sampled_from([1, 3, 8, 1000, 2**31 + 1, 2**32])


@st.composite
def _draw_programs(draw):
    """Lane count, per-lane bit generator kinds and a mixed call sequence."""
    lanes = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["pcg", "pcg", "pcg", "philox", "sfc"]),
                          min_size=lanes, max_size=lanes))
    counts = st.lists(st.integers(0, 9), min_size=lanes, max_size=lanes)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("random"), counts),
        st.tuples(st.just("uniform"), counts,
                  st.sampled_from([(0.0, 1.0), (0.3, 2.7), (-5.0, 1e3)])),
        st.tuples(st.just("integers"), counts, st.one_of(
            _HIGHS, st.lists(_HIGHS, min_size=lanes, max_size=lanes))),
        st.tuples(st.just("handout"), st.integers(0, lanes - 1), st.integers(0, 3)),
    ), min_size=1, max_size=8))
    return kinds, ops, draw(st.integers(0, 2**32))


def _make(kind, seed, t):
    if kind == "pcg":
        return np.random.default_rng([seed, t])
    bits = np.random.Philox if kind == "philox" else np.random.SFC64
    return np.random.Generator(bits([seed, t]))


@settings(max_examples=150, deadline=None)
@given(_draw_programs())
def test_chunk_draws_equal_per_lane_calls(program):
    kinds, ops, seed = program
    streams = TrialStreams([_make(k, seed, t) for t, k in enumerate(kinds)])
    ref = [_make(k, seed, t) for t, k in enumerate(kinds)]
    for op in ops:
        if op[0] == "handout":  # odd integers calls leave a pending half
            _, t, k = op
            got, want = (g.integers(0, 7, size=k) for g in (streams.generator(t), ref[t]))
        elif op[0] == "random":
            got = streams.random(op[1])
            want = np.concatenate([g.random(c) for g, c in zip(ref, op[1])])
        elif op[0] == "uniform":
            low, high = op[2]
            got = streams.uniform(low, high, op[1])
            want = np.concatenate([g.uniform(low, high, c) for g, c in zip(ref, op[1])])
        else:
            highs = np.broadcast_to(op[2], len(ref)).tolist()
            got = streams.integers(op[2], op[1])
            want = np.concatenate([
                g.integers(0, h, size=c, dtype=np.int64) for g, h, c in zip(ref, highs, op[1])
            ])
        assert got.tobytes() == want.tobytes()
    assert _states(_lanes(streams)) == _states(ref)


@settings(max_examples=60, deadline=None)
@given(
    entropy=_ENTROPY,
    n=st.integers(1, 40),
    rounds=st.lists(st.tuples(st.integers(0, 6).map(lambda c: 2 * c), _HIGHS), max_size=5),
)
def test_spawned_lanes_draw_like_default_rng(entropy, n, rounds):
    """Spawned lanes start without a pending half: the fast path from the start."""
    streams, ref = TrialStreams.spawn(entropy, n), _reference(entropy, n=n)
    for count, high in rounds:
        got = streams.integers(high, count)
        want = np.concatenate([g.integers(0, high, size=count, dtype=np.int64) for g in ref])
        assert got.tobytes() == want.tobytes()
        got = streams.uniform(0.0, 1.0, count + 1)
        want = np.concatenate([g.uniform(0.0, 1.0, count + 1) for g in ref])
        assert got.tobytes() == want.tobytes()
    assert _states(_lanes(streams)) == _states(ref)


def test_streams_slice_shares_lanes():
    streams = TrialStreams.spawn(4, 6)
    tail = streams[2:]
    assert len(tail) == 4 and tail.generator(0) is streams.generator(2)
    tail.generator(1).integers(0, 8, size=1)  # lane 3 now holds a pending half
    ref = _reference(4, n=6)
    ref[3].integers(0, 8, size=1)
    got = streams.integers(8, 4)
    want = np.concatenate([g.integers(0, 8, size=4, dtype=np.int64) for g in ref])
    assert got.tobytes() == want.tobytes()


def test_integers_rejects_out_of_range_bounds():
    streams = TrialStreams.spawn(0, 2)
    with pytest.raises(ValueError):
        streams.integers(0, 2)
    with pytest.raises(ValueError):
        streams.integers(2**32 + 1, 2)
