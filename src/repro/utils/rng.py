"""Seeded random-number-generator helpers.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`.  Centralising the coercion here keeps
experiments reproducible and avoids the legacy ``numpy.random.RandomState``
global state.

Trial lanes
-----------
A sweep point's trials each draw from their own child of the point's root
``SeedSequence``: trial ``t`` is ``default_rng(root.spawn(n)[t])``, its
*lane*.  That keeps every result independent of how trials are split over
workers.  :class:`TrialStreams` holds a chunk's lanes and draws for all of
them at once, bit for bit what each lane's own ``Generator`` call returns:

* :meth:`TrialStreams.spawn` computes every child's PCG64 seed words in one
  vectorized pass of ``SeedSequence``'s hash.  Children differ only in
  their last spawn-key word, so only that word's mixing runs per lane.
* :meth:`~TrialStreams.random` and :meth:`~TrialStreams.uniform` make each
  lane's own ``random`` call straight into its slot of one result array, so
  they are exact for any bit generator.  (A ``random_raw`` call per lane
  plus one ``(raw >> 11) * 2**-53`` transform measured slower: the
  transform's fresh temporaries cost more than the calls it saves.)
* :meth:`~TrialStreams.integers` makes one ``random_raw`` call per lane and
  one Lemire transform ``(u * high) >> 32`` over the words' 32-bit halves,
  low half first, as NumPy's ``integers(0, high)`` does for
  ``high <= 2**32``.  A lane the transform cannot vouch for (not PCG64, a
  possibly pending 32-bit half, an odd count, a Lemire rejection) takes
  NumPy's own call instead.

:class:`LaneSeeds` is the picklable description of a run of lanes, so a
process pool can ship each worker its chunk's seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
#: 2**32: bounds the child indices (one uint32 word each) and the largest
#: ``integers`` bound NumPy draws from 32-bit halves.
_TWO32 = 1 << 32


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    An existing generator is returned unchanged so callers can thread one
    generator through a pipeline without re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``seed``.

    Used by multi-trial experiment harnesses so each trial is independently
    seeded yet the whole sweep is reproducible from a single root seed.
    Child ``t`` is ``default_rng(root.spawn(n)[t])``.
    """
    streams = TrialStreams.spawn(seed, n)
    return [streams.generator(t) for t in range(n)]


# -- SeedSequence's hash, vectorized over children ----------------------------


def _uint32_words(x) -> list[int]:
    """``SeedSequence``'s uint32 coding of an entropy value or spawn key."""
    if isinstance(x, np.ndarray) and x.dtype == np.uint32:
        return [int(v) for v in x.ravel()]
    if isinstance(x, str):
        base = 16 if x.startswith("0x") else 8 if x.startswith("0") else 10
        return _uint32_words(int(x, base))
    if isinstance(x, (int, np.integer)):
        n = int(x)
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    return [w for v in x for w in _uint32_words(v)]


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """One ``hashmix`` step: ``(mixed value, next hash constant)``.

    ``value`` is a Python int or a uint32 array; both wrap at 32 bits.
    """
    nxt = hash_const * mult & _MASK32
    value = (value ^ hash_const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


@dataclass(frozen=True)
class LaneSeeds:
    """Children ``first … first + count − 1`` of one seed sequence.

    ``(entropy, spawn_key, pool_size)`` are the root ``SeedSequence``'s
    public attributes; child ``i`` is
    ``SeedSequence(entropy, spawn_key=spawn_key + (i,), pool_size=pool_size)``.
    The description is small and picklable, so a worker rebuilds exactly
    the lanes a serial run would have used.
    """

    entropy: object
    spawn_key: tuple
    pool_size: int
    first: int
    count: int

    @classmethod
    def claim(cls, seed: SeedLike, n: int) -> "LaneSeeds":
        """The next ``n`` children of ``seed`` (which ``root.spawn(n)`` returns).

        A passed ``SeedSequence`` advances by ``n``, so two claims never
        share lanes.  A ``Generator`` seeds a root from four of its draws.
        """
        if n < 0:
            raise ValueError(f"cannot spawn a negative number of generators: {n}")
        if isinstance(seed, np.random.SeedSequence):
            root, first = seed, seed.n_children_spawned
            # NumPy keeps the child counter read-only: spawning is the
            # exact way to advance it.
            root.spawn(n)
        else:
            if isinstance(seed, np.random.Generator):
                seed = seed.integers(0, 2**63 - 1, size=4).tolist()
            root, first = np.random.SeedSequence(seed), 0
        return cls(root.entropy, tuple(root.spawn_key), root.pool_size, first, n)

    def split(self, size: int) -> list["LaneSeeds"]:
        """Consecutive runs of at most ``size`` lanes covering this one."""
        return [
            dataclasses.replace(self, first=self.first + k, count=min(size, self.count - k))
            for k in range(0, self.count, size)
        ]

    def state_words(self) -> np.ndarray:
        """Every child's ``generate_state(4, uint64)``, shape ``(count, 4)``.

        The mixing common to all children (entropy padded to the pool, the
        root's spawn key) runs once on Python ints; each child's index word
        then mixes into the pool as uint32 arrays, one lane per element.
        """
        pool_size = self.pool_size
        run = _uint32_words(self.entropy)
        # A spawned child pads its run entropy to the pool size.
        run += [0] * (pool_size - len(run))
        prefix = run + _uint32_words(self.spawn_key)
        hc = _INIT_A
        pool = []
        for word in prefix[:pool_size]:
            h, hc = _hashmix(word, hc)
            pool.append(h)
        for src in range(pool_size):
            for dst in range(pool_size):
                if src != dst:
                    h, hc = _hashmix(pool[src], hc)
                    pool[dst] = _mix(pool[dst], h)
        for word in prefix[pool_size:]:
            for dst in range(pool_size):
                h, hc = _hashmix(word, hc)
                pool[dst] = _mix(pool[dst], h)
        if self.first + self.count > _TWO32:
            raise ValueError("child indices must fit in 32 bits")
        # Each child's index is one more entropy word, mixed per lane.
        index = np.arange(self.first, self.first + self.count, dtype=np.uint32)
        lanes = [np.full(self.count, p, dtype=np.uint32) for p in pool]
        for dst in range(pool_size):
            h, hc = _hashmix(index, hc)
            lanes[dst] = _mix(lanes[dst], h)
        state = np.empty((self.count, 8), dtype=np.uint32)
        hc = _INIT_B
        for i in range(8):
            state[:, i], hc = _hashmix(lanes[i % pool_size], hc, _MULT_B)
        return state.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A seed sequence that hands a bit generator precomputed state words."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed PCG64 seed: only generate_state(4, uint64)")
        return self._words


# -- lanes --------------------------------------------------------------------


class TrialStreams:
    """T trial generators ("lanes") that draw a whole chunk per call.

    Draw ``counts[t]`` values for lane ``t`` with one call; results are
    flat, lane-major (lane 0's values first), and bit-identical to calling
    each lane's ``Generator`` in turn.  Lanes handed out through
    :meth:`generator` (or indexing) stay in sync: they are the same
    ``Generator`` objects.
    """

    def __init__(self, generators):
        gens = list(generators)
        # Wrapped generators may hold a pending 32-bit half.
        self._init(gens, np.ones(len(gens), dtype=bool))

    def _init(self, gens: list, pending: np.ndarray) -> None:
        self._gens = gens
        self._bits = [g.bit_generator for g in gens]
        self._pcg = np.array([type(b) is np.random.PCG64 for b in self._bits], dtype=bool)
        #: Lane may hold a buffered 32-bit half: ``integers`` reads its state first.
        self._pending = pending

    @classmethod
    def spawn(cls, seed: SeedLike, n: int) -> "TrialStreams":
        """Lane ``t`` equals ``default_rng(child_t)`` for ``root.spawn(n)``."""
        return cls.from_seeds(LaneSeeds.claim(seed, n))

    @classmethod
    def from_seeds(cls, seeds: LaneSeeds) -> "TrialStreams":
        """The lanes a :class:`LaneSeeds` describes."""
        gens = [
            np.random.Generator(np.random.PCG64(_StateWords(row)))
            for row in seeds.state_words()
        ]
        streams = cls.__new__(cls)
        streams._init(gens, np.zeros(len(gens), dtype=bool))
        return streams

    def __len__(self) -> int:
        return len(self._gens)

    def generator(self, t: int) -> np.random.Generator:
        """Lane ``t``'s own generator (for draws without a batched form)."""
        gen = self._gens[t]
        self._pending[t] = True
        return gen

    def __getitem__(self, key):
        if isinstance(key, slice):
            view = type(self).__new__(type(self))
            view._init(self._gens[key], self._pending[key])  # shares the flags
            return view
        return self.generator(key)

    def _counts(self, counts) -> np.ndarray:
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (len(self),))
        if np.any(counts < 0):
            raise ValueError("negative draw count")
        return counts

    def _slots(self, counts: np.ndarray) -> list[slice]:
        ends = np.cumsum(counts).tolist()
        return [slice(end - c, end) for end, c in zip(ends, counts.tolist())]

    def random(self, counts) -> np.ndarray:
        """``concat(gen_t.random(counts[t]))`` over the lanes.

        Each lane is NumPy's own call, written in place into its slot of
        the result: no transform, so any bit generator is exact.
        """
        counts = self._counts(counts)
        out = np.empty(int(counts.sum()))
        for gen, slot in zip(self._gens, self._slots(counts)):
            gen.random(out=out[slot])
        return out

    def uniform(self, low: float, high: float, counts) -> np.ndarray:
        """``concat(gen_t.uniform(low, high, counts[t]))`` over the lanes."""
        low, high = float(low), float(high)
        span = high - low
        if not np.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        out = self.random(counts)
        if (low, span) != (0.0, 1.0):
            # NumPy's random_uniform: lower + range * next_double.
            out *= span
            out += low
        return out

    def integers(self, high, counts) -> np.ndarray:
        """``concat(gen_t.integers(0, high_t, counts[t], dtype=int64))``.

        ``high`` is one bound or one per lane, each in ``[1, 2**32]``.
        """
        counts = self._counts(counts)
        high = np.broadcast_to(np.asarray(high, dtype=np.int64), (len(self),))
        if np.any(high < 1) or np.any(high > _TWO32):
            raise ValueError(f"high must lie in [1, 2**32], got {high}")
        if not len(self):
            return np.zeros(0, dtype=np.int64)
        drawn = high > 1  # NumPy draws nothing for a single value
        even = counts % 2 == 0
        for t in np.flatnonzero(self._pending & self._pcg & drawn & even).tolist():
            self._pending[t] = bool(self._bits[t].state["has_uint32"])
        fast = self._pcg & ~self._pending & even & drawn
        words = np.where(fast, counts // 2, 0)
        raw = [self._bits[t].random_raw(k) for t, k in zip(np.flatnonzero(fast).tolist(),
                                                           words[fast].tolist())]
        raw = np.concatenate(raw) if raw else np.zeros(0, np.uint64)
        # Two 32-bit halves per word, low half first, then Lemire's multiply.
        m = raw.astype("<u8", copy=False).view("<u4").astype(np.uint64)
        if np.all(high == high[0]):
            m *= np.uint64(high[0])
        else:
            m *= np.repeat(high, 2 * words).astype(np.uint64)
        threshold = (_TWO32 - high) % high
        slow = drawn & ~fast
        if np.any(threshold[fast] > 0):
            lane = np.repeat(np.arange(len(self)), 2 * words)
            rejected = (m & np.uint64(_MASK32)) < threshold[lane].astype(np.uint64)
            for t in np.unique(lane[rejected]).tolist():
                self._bits[t].advance(-int(words[t]))  # rewind, then NumPy's own call
                slow[t] = True
        m >>= np.uint64(32)
        if fast.all() and not slow.any():
            return m.view(np.int64)
        out = np.zeros(int(counts.sum()), dtype=np.int64)
        out[np.repeat(fast, counts)] = m.view(np.int64)
        slots = self._slots(counts)
        for t in np.flatnonzero(slow).tolist():
            out[slots[t]] = self._gens[t].integers(
                0, int(high[t]), size=int(counts[t]), dtype=np.int64
            )
            self._pending[t] = True
        return out
