"""Random k-graph generation.

Uniform m-edge graphs arrive as ordered prefixes (partial Fisher-Yates over
the edge list), binomial graphs as plain edge sets, and uniform d-regular
extensions by rejection: permute the residual vertex-copy multiset, chop it
into k-blocks, keep the result iff it is simple.  Conditioned on acceptance
the result is uniform over ordered regular extensions of the base.

A regular sample is the first simple row among successive
`gen.permutation(vector)` draws.  The rows are drawn and checked in
batches, each one `gen.permuted` call, and the stream is left exactly
after the accepted row, where drawing the permutations one at a time would
have left it.  The batch runs past that row, so the stream records a
replay of the rows up to it and redraws them only if it is read again.

Every stream is numpy's PCG64 with one seeding path: the stream (seed,
path) starts from the four words of numpy's `SeedSequence(seed,
spawn_key=path).generate_state(4, np.uint64)`, which `seed_words`
computes on Python ints and `trial_seed_words` for a whole batch of trials
(seed, (i,)) in one vectorised pass.  Every sampler takes its randomness
as one argument, resolved by `Pcg64Stream.of`: an `RngStream` starts from
its seed words, a `Pcg64Stream` is continued from where it is, and
anything else is refused.  Bounded integers are drawn by the
`Pcg64Stream`, a pure-Python PCG64 that matches numpy's
`Generator.integers` draw for draw; draws only numpy makes (permutations,
`random`, `binomial`) come from the numpy Generator the stream hands off
at its position.  No stream depends on which of the two drew it.
`Pcg64Lanes` draws the streams of many trials at once, each lane what its
own `Pcg64Stream` would.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .core import (
    DomainError,
    MultiEdge,
    OrderedHypergraph,
    Hypergraph,
    Params,
    complement_edges,
    edge_pool,
    is_simple,
    residual_degrees,
)
from . import oracle
from .stats import wilson_interval

DEFAULT_MAX_ATTEMPTS = 2_000_000


class RejectionBudgetError(RuntimeError):
    """Rejection sampling found no simple extension within its attempt budget."""


@dataclass(frozen=True)
class RngStream:
    """Addressable reproducible randomness: seed plus a spawn path.

    Two streams with different paths are statistically independent; the same
    (seed, path) always yields the same draws.  The seed and every path
    element must be non-negative integers.  A stream's draws are those of
    numpy's PCG64 seeded by `SeedSequence(seed, spawn_key=path)`, through
    the four seed words `words`; streams made by `trials` carry theirs.
    """

    seed: int
    path: tuple[int, ...] = ()
    _words: tuple[int, ...] | None = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self) -> None:
        seed, path = _check_seed(self.seed, self.path)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path", path)

    @classmethod
    def trials(cls, seed: int, count: int,
               path: tuple[int, ...] = ()) -> list["RngStream"]:
        """The streams (seed, path + (i,)) of trials i = 0..count-1, seeded
        in bulk by `trial_seed_words`.  Seed and path are checked once, so
        the streams are filled in directly rather than each through
        `__init__`."""
        seed, path = _check_seed(seed, path)
        return [cls._seeded(seed, path + (i,), tuple(words)) for i, words
                in enumerate(trial_seed_words(seed, count, path).tolist())]

    @classmethod
    def _seeded(cls, seed: int, path: tuple[int, ...],
                words: tuple[int, ...]) -> "RngStream":
        """The stream (seed, path) with its seed words already computed;
        seed and path must be checked."""
        stream = object.__new__(cls)
        stream.__dict__.update(seed=seed, path=path, _words=words)
        return stream

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(indices))

    @property
    def words(self) -> tuple[int, ...]:
        """`SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)`
        as four Python ints (`seed_words`), computed once."""
        if self._words is None:
            object.__setattr__(self, "_words", seed_words(self.seed, self.path))
        return self._words

    def generator(self) -> np.random.Generator:
        return _numpy_generator(self.words)


def _check_seed(seed, path) -> tuple[int, tuple[int, ...]]:
    """seed and path as ints; DomainError unless all are non-negative."""
    try:
        seed = operator.index(seed)
        path = tuple(map(operator.index, path))
    except TypeError:
        raise DomainError(f"seed and path must be integers, got seed={seed!r} "
                          f"path={path!r}") from None
    if seed < 0 or any(i < 0 for i in path):
        raise DomainError(f"seed and path must be non-negative integers, got "
                          f"seed={seed} path={path}")
    return seed, path


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """A non-negative integer as numpy's seeding reads it: its 32-bit words,
    least significant first, and one zero word for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _entropy(seed: int, path: tuple[int, ...]) -> list[int]:
    """The entropy words of `SeedSequence(seed, spawn_key=path)`: the seed's
    words zero-padded to the pool size of 4, then each path element's.
    numpy pads only when a spawn key follows, but a missing pool word is
    hashed as a zero, so padding always gives the same pool."""
    seed, path = _check_seed(seed, path)
    words = _uint32_words(seed)
    words += [0] * (4 - len(words))
    for i in path:
        words += _uint32_words(i)
    return words


def _generate_state(entropy: list) -> list:
    """numpy's SeedSequence hashing of the entropy words and its
    `generate_state(4, np.uint64)`.

    A word is a Python int or a uint64 array of 32-bit values: products of
    two 32-bit values fit in 64 bits, so with explicit masking both give
    numpy's uint32 arithmetic, and an array word makes every later pool
    word and the four output words arrays over its entries.
    """
    mult = _INIT_A

    def hashmix(value):
        nonlocal mult
        value = value ^ mult
        mult = mult * _MULT_A & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))

    mult = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * _MULT_B & _MASK32
        value = value * mult & _MASK32
        out.append(value ^ value >> 16)
    # word pairs read as little-endian uint64, as generate_state does
    return [out[j] | out[j + 1] << 32 for j in range(0, 8, 2)]


def seed_words(seed: int, path: tuple[int, ...] = ()) -> tuple[int, ...]:
    """`SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)`
    as four Python ints, for any non-negative seed and path elements."""
    return tuple(_generate_state(_entropy(seed, path)))


def trial_seed_words(seed: int, count: int,
                     path: tuple[int, ...] = ()) -> np.ndarray:
    """Row i is `seed_words(seed, path + (i,))`, for i = 0..count-1, as a
    (count, 4) uint64 array.

    The words before the trial index are the same for every trial, so the
    pool is hashed from them once, on Python ints, and only the index's
    mixing and the output words run over all trials at once.
    """
    count = operator.index(count)
    if not 0 <= count <= 1 << 32:
        raise DomainError(f"trial count {count} outside 0..2^32")
    index = np.arange(count, dtype=np.uint64)
    words = _generate_state(_entropy(seed, path) + [index])
    return np.stack(words, axis=1)


_numpy_random = None


def _numpy_generator(words: tuple[int, ...]) -> np.random.Generator:
    """numpy's PCG64 Generator seeded from the four seed words.

    The words reach PCG64 through a subclass of numpy's `ISeedSequence`.
    It and numpy's classes are loaded on first use: importing `numpy.random`
    at module import would cost every CLI call its import time, including
    those that draw nothing or draw only from `Pcg64Stream`.
    """
    global _numpy_random
    if _numpy_random is None:
        from numpy.random import PCG64, Generator
        from numpy.random.bit_generator import ISeedSequence

        class _SeedWords(ISeedSequence):
            def __init__(self, words: np.ndarray) -> None:
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                if n_words != 4 or dtype is not np.uint64:
                    raise DomainError("seed words only seed PCG64")
                return self.words

        _numpy_random = Generator, PCG64, _SeedWords
    generator, pcg64, seeded = _numpy_random
    return generator(pcg64(seeded(np.array(words, dtype=np.uint64))))


# PCG64 (O'Neill 2014) as numpy implements it (numpy/random/src/pcg64)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


class Pcg64Stream:
    """numpy's PCG64 and its `Generator.integers` draws, on Python ints.

    Draw for draw what a PCG64-backed numpy Generator at the same state
    draws: the 128-bit LCG with XSL-RR output, the half-word buffer of
    `next_uint32`, and numpy's bounded draw (none for a range of 1, one raw
    uint32 for a range of 2^32, Lemire's rejection on 32 bits for other
    ranges up to 2^32 and on 64 bits above).  It spares bounded draws
    numpy's per-call overhead and the import of `numpy.random`.

    `of` is the one resolution of a sampler's randomness argument: the
    stream of an `RngStream`, or a `Pcg64Stream` itself, so samplers called
    in turn on one stream continue it.  `handoff` lends a numpy Generator
    at the stream's position for the draws only numpy makes.

    The live state sits in one of two places.  After a handoff it stays in
    the lent Generator, so handoffs with no bounded draw between them pass
    it on without converting it; the first bounded draw, or a read of
    `state`, takes it back.  The Generator may also have run ahead of the
    stream: a rejection batch permutes rows past the accepted one, and
    `defer_replay` records where the stream really is.  Those rows are
    redrawn only when the stream is next read, so a stream dropped after
    its sample never redraws them.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger", "_rng",
                 "_gen", "_lent", "_replay")

    def __init__(self, rng: RngStream) -> None:
        """Seeded from rng's four seed words as numpy's `pcg64_set_seed`
        seeds: the first two are the initial state, the last two the
        increment."""
        words = rng.words
        initstate = words[0] << 64 | words[1]
        self._inc = inc = (words[2] << 65 | words[3] << 1 | 1) & _MASK128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        self._has_uint32 = self._uinteger = 0
        self._rng = rng
        self._gen = None
        # the lent Generator holds the live state, after the replay if any
        self._lent = False
        self._replay = None

    @classmethod
    def of(cls, rng) -> "Pcg64Stream":
        """The stream that draws for rng: an RngStream's, from its start,
        or a Pcg64Stream itself, from where it is."""
        if isinstance(rng, cls):
            return rng
        if not isinstance(rng, RngStream):
            raise DomainError(f"expected RngStream or Pcg64Stream, got "
                              f"{type(rng)!r}")
        return cls(rng)

    @property
    def state(self) -> dict:
        """The state as numpy's `PCG64.state` dict."""
        if self._lent:
            self._take_back()
        return {"bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": self._has_uint32, "uinteger": self._uinteger}

    @state.setter
    def state(self, value: dict) -> None:
        self._state = value["state"]["state"]
        self._inc = value["state"]["inc"]
        self._has_uint32 = value["has_uint32"]
        self._uinteger = value["uinteger"]
        self._lent = False
        self._replay = None

    def _caught_up(self) -> np.random.Generator:
        """The lent Generator at the stream's position: a pending replay
        is redrawn first."""
        gen = self._gen
        if self._replay is not None:
            state, rows, width = self._replay
            self._replay = None
            gen.bit_generator.state = state
            # the draws depend on the shape only; int64 takes numpy's
            # fastest shuffle
            tile = np.empty((rows, width), dtype=np.int64)
            gen.permuted(tile, axis=1, out=tile)
        return gen

    def _take_back(self) -> None:
        """Move the live state from the lent Generator to the stream."""
        self.state = self._caught_up().bit_generator.state

    def defer_replay(self, state: dict, rows: int, width: int) -> None:
        """Place the stream `rows` permutations of `width` items after
        `state`, a state the lent Generator has already passed through.
        Call only while a handoff is open; the rows are redrawn from
        `state` when the stream is next read."""
        self._replay = state, rows, width

    def next_uint64(self) -> int:
        if self._lent:
            self._take_back()
        return self._next_uint64()

    def next_uint32(self) -> int:
        """The low half of a fresh 64-bit output, keeping the high half for
        the next call."""
        if self._lent:
            self._take_back()
        return self._next_uint32()

    def _next_uint64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        v = (s >> 64) ^ (s & _MASK64)
        r = s >> 122
        return (v >> r | v << (64 - r)) & _MASK64

    def _next_uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        v = self._next_uint64()
        self._has_uint32, self._uinteger = 1, v >> 32
        return v & _MASK32

    def integers(self, low: int, high: int | None = None,
                 size: int | None = None):
        """A uniform integer in [low, high), or [0, low) without high, as
        numpy's `Generator.integers` draws it; with size, a list of size of
        them.  The range must be at most 2^63."""
        if self._lent:
            self._take_back()
        if high is None:
            low, high = 0, low
        if size is not None:
            return [self.integers(low, high) for _ in range(size)]
        excl = high - low
        if excl == 1:
            return low
        if 1 < excl < 1 << 32:
            m = self._next_uint32() * excl
            if m & _MASK32 < excl:
                threshold = ((1 << 32) - excl) % excl
                while m & _MASK32 < threshold:
                    m = self._next_uint32() * excl
            return low + (m >> 32)
        if excl == 1 << 32:
            return low + self._next_uint32()
        if not 1 << 32 < excl <= 1 << 63:
            raise DomainError(f"integers range [{low}, {high}) is empty or "
                              f"wider than 2^63")
        m = self._next_uint64() * excl
        if m & _MASK64 < excl:
            threshold = ((1 << 64) - excl) % excl
            while m & _MASK64 < threshold:
                m = self._next_uint64() * excl
        return low + (m >> 64)

    @contextmanager
    def handoff(self):
        """A numpy Generator at this stream's position, for the draws only
        numpy makes; the stream continues from where the Generator stops.
        The Generator is the seeding RngStream's own, made on the first
        handoff, so no other sampler may draw from the stream while it is
        lent, and nothing may draw from the Generator after the block."""
        if self._lent:
            gen = self._caught_up()
        else:
            if self._gen is None:
                self._gen = self._rng.generator()
            gen = self._gen
            gen.bit_generator.state = self.state
            self._lent = True
        yield gen


# 128-bit PCG64 arithmetic on uint64 arrays: a value is a (hi, lo) pair of
# arrays, and products wrap as numpy's uint64 arithmetic does
_U32 = np.uint64(0xFFFFFFFF)
_W32 = np.uint64(32)
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the products a * b, from 32-bit halves."""
    a0, a1, b0, b1 = a & _U32, a >> _W32, b & _U32, b >> _W32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _W32) + (p01 & _U32) + (p10 & _U32)
    return a1 * b1 + (p01 >> _W32) + (p10 >> _W32) + (mid >> _W32)


def _mul128(ahi, alo, bhi, blo) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2^128."""
    return _mulhi64(alo, blo) + alo * bhi + ahi * blo, alo * blo


def _add128(ahi, alo, bhi, blo) -> tuple[np.ndarray, np.ndarray]:
    """(a + b) mod 2^128."""
    lo = alo + blo
    return ahi + bhi + (lo < blo), lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of the states (hi, lo): hi ^ lo rotated right by the
    top six bits of hi."""
    v = hi ^ lo
    r = hi >> np.uint64(58)
    return v >> r | v << ((np.uint64(64) - r) & np.uint64(63))


# outputs one jump of the lanes' states lays out, and the fewest outputs
# laid out at once: enough for a (6,3,2) coupling walk's 10 draws
_JUMP = 4
_LAID_OUT = 8


@lru_cache(maxsize=_JUMP)
def _jump(steps: int) -> tuple[np.ndarray, ...]:
    """(A_j, S_j) for j = 1..steps as uint64 (hi, lo) rows: j outputs
    after state s with increment inc, the state is A_j * s + S_j * inc."""
    a, s, table = 1, 0, []
    for _ in range(steps):
        a, s = a * _PCG_MULT & _MASK128, (s * _PCG_MULT + 1) & _MASK128
        table.append((a >> 64, a & _MASK64, s >> 64, s & _MASK64))
    return tuple(np.array(col, dtype=np.uint64) for col in zip(*table))


class Pcg64Lanes:
    """The `Pcg64Stream`s of the trials (seed, (i,)) for i = start..start +
    count - 1, drawn together, one lane per trial: the bulk form of
    `Pcg64Stream`, as `trial_seed_words` is of `seed_words`.

    Every lane holds numpy's PCG64 state (the 128-bit state as two uint64
    arrays, products built from 32-bit halves) and the half-word buffer of
    `next_uint32`, seeded from its row of `trial_seed_words`, and each
    bounded draw of a lane is the one its `Pcg64Stream` makes: none for a
    range of 1, one raw uint32 for a range of 2^32, Lemire's rejection on
    32 bits for other ranges up to 2^32 and on 64 bits above; only the
    lanes that reject draw again.  `stream(i)` hands lane i on as a
    `Pcg64Stream`.

    The states are seeded at the first draw, so lanes that are only
    handed on cost their seed words alone.  Every lane's next _LAID_OUT
    outputs are then laid out at once, as half-words from a jump of each
    state (the state j outputs on is A_j s + S_j inc), and 32-bit draws
    read them by a per-lane cursor; so a draw on few lanes costs a few
    array calls, not a PCG step each.  A 64-bit draw, an export or a cursor
    at the end of the layout first writes the cursors back into the lanes'
    states.
    """

    def __init__(self, seed: int, count: int, start: int = 0) -> None:
        seed, (start,) = _check_seed(seed, (start,))
        if count < 1:
            raise DomainError("lanes need count >= 1")
        self.seed, self.start, self.size = seed, start, count
        self._words = trial_seed_words(seed, start + count)[start:]
        self._all = np.arange(count)
        # the lanes' states, seeded at the first draw
        self._hi = self._lo = self._inc = self._has = self._buf = None
        # the laid-out half-words, the states they come from and the cursors
        self._half = self._states = self._cur = None

    def _seed(self) -> None:
        """Seed every lane as `Pcg64Stream.__init__` does: the increment
        from the last two seed words, the state ((inc + initstate) * MULT +
        inc) from the first two."""
        w0, w1, w2, w3 = self._words.T
        one = np.uint64(1)
        self._inc = inc = w2 << one | w3 >> np.uint64(63), w3 << one | one
        state = _mul128(*_add128(*inc, w0, w1), _MULT_HI, _MULT_LO)
        self._hi, self._lo = _add128(*state, *inc)
        self._has = np.zeros(self.size, dtype=bool)
        self._buf = np.zeros(self.size, dtype=np.uint64)

    def _lay_out(self, steps: int) -> None:
        """Lay out every lane's next `steps` outputs: row i of `_half` is
        lane i's buffered half-word, then each output's low and high half,
        and its cursor starts at the buffered half-word if there is one.
        The states are jumped _JUMP outputs at a time, which keeps the
        temporaries of many lanes small."""
        if self._hi is None:
            self._seed()
        hi, lo, states = self._hi, self._lo, []
        for done in range(0, steps, _JUMP):
            a_hi, a_lo, s_hi, s_lo = (
                x[:, None] for x in _jump(min(_JUMP, steps - done)))
            hi, lo = _add128(*_mul128(hi, lo, a_hi, a_lo),
                             *_mul128(*self._inc, s_hi, s_lo))
            states.append((hi, lo))
            hi, lo = hi[-1], lo[-1]
        hi, lo = (np.concatenate(part) for part in zip(*states))
        out = _xsl_rr(hi, lo)
        half = np.empty((self.size, 2 * steps + 1), dtype=np.uint64)
        half[:, 0] = self._buf
        half[:, 1::2] = (out & _U32).T
        half[:, 2::2] = (out >> _W32).T
        self._half, self._states = half, (hi, lo)
        self._cur = (~self._has).astype(np.intp)

    def _settle(self) -> None:
        """Write the cursors back into the states and buffers.  A cursor c
        past the buffered half-word has read c // 2 outputs; the high half
        of the last stays in the buffer, still to be read when c is even."""
        if self._half is None:
            return
        c = self._cur
        rows = np.flatnonzero(c >= 2)
        j = c[rows] // 2
        self._hi[rows] = self._states[0][j - 1, rows]
        self._lo[rows] = self._states[1][j - 1, rows]
        self._buf[rows] = self._half[rows, 2 * j]
        self._has = np.where(c >= 2, c % 2 == 0, self._has & (c == 0))
        self._half = self._states = self._cur = None

    def _next_uint32(self, rows: np.ndarray, count: int = 1) -> np.ndarray:
        """The next `count` uint32 outputs of each lane of rows, as
        `next_uint32` returns them in turn: (len(rows),) for one, else
        (len(rows), count)."""
        if self._half is not None:
            c = self._cur[rows]
            if c.max() + count > self._half.shape[1]:
                self._settle()
        if self._half is None:
            self._lay_out(max(_LAID_OUT, count // 2 + 1))
            c = self._cur[rows]
        self._cur[rows] = c + count
        if count == 1:
            return self._half[rows, c]
        return self._half[rows[:, None], c[:, None] + np.arange(count)]

    def _next_uint64(self, rows: np.ndarray) -> np.ndarray:
        """One PCG step of each lane of rows; the half-word buffers stay."""
        self._settle()
        if self._hi is None:
            self._seed()
        hi, lo = _add128(*_mul128(self._hi[rows], self._lo[rows], _MULT_HI,
                                  _MULT_LO), self._inc[0][rows],
                         self._inc[1][rows])
        self._hi[rows], self._lo[rows] = hi, lo
        return _xsl_rr(hi, lo)

    def _lemire32(self, rows: np.ndarray, high: np.ndarray) -> np.ndarray:
        m = self._next_uint32(rows) * high
        suspect = np.flatnonzero((m & _U32) < high)
        if len(suspect):
            h = high[suspect]
            bad = suspect[(m[suspect] & _U32) < (np.uint64(1 << 32) - h) % h]
            while len(bad):
                h = high[bad]
                m[bad] = self._next_uint32(rows[bad]) * h
                bad = bad[(m[bad] & _U32) < (np.uint64(1 << 32) - h) % h]
        return m >> _W32

    def _lemire64(self, rows: np.ndarray, high: np.ndarray) -> np.ndarray:
        x = self._next_uint64(rows)
        lo, hi = x * high, _mulhi64(x, high)
        suspect = np.flatnonzero(lo < high)
        if len(suspect):
            h = high[suspect]
            bad = suspect[lo[suspect] < (~h + np.uint64(1)) % h]
            while len(bad):
                h = high[bad]
                x = self._next_uint64(rows[bad])
                lo[bad], hi[bad] = x * h, _mulhi64(x, h)
                bad = bad[lo[bad] < (~h + np.uint64(1)) % h]
        return hi

    def integers(self, high, rows=None) -> np.ndarray:
        """A uniform integer in [0, high) for every lane of `rows` (an index
        array; None: every lane), as uint64: lane i draws what its
        `Pcg64Stream.integers(high)` would.  high is one int or one per
        row, each in 1..2^63."""
        rows = self._all if rows is None else np.asarray(rows, dtype=np.intp)
        if not len(rows):
            return np.zeros(0, dtype=np.uint64)
        if isinstance(high, np.ndarray):
            high = high.astype(np.uint64, copy=False)
            least, most = int(high.min()), int(high.max())
        else:
            least = most = high
            high = np.full(len(rows), high, dtype=np.uint64)
        if not 1 <= least <= most <= 1 << 63:
            raise DomainError(f"integers ranges {least}..{most} leave 1..2^63")
        if 1 < least and most <= 1 << 32:
            return self._lemire32(rows, high)
        out = np.zeros(len(rows), dtype=np.uint64)
        for part, draw in (((high > 1) & (high <= 1 << 32), self._lemire32),
                           (high > 1 << 32, self._lemire64)):
            part = np.flatnonzero(part)
            if len(part):
                out[part] = draw(rows[part], high[part])
        return out

    def integers_in_turn(self, highs) -> np.ndarray:
        """Row i holds lane i's draws `integers(h)` for each h of `highs` in
        turn, as a (count, len(highs)) uint64 array.

        While every range is at most 2^32, the draws of all lanes are read
        off their half-words at once, and only a lane with a rejection
        among them draws again, range by range.
        """
        highs = [operator.index(h) for h in highs]
        out = np.zeros((self.size, len(highs)), dtype=np.uint64)
        cols = [j for j, h in enumerate(highs) if h != 1]
        if not cols:
            return out
        if not all(1 < highs[j] <= 1 << 32 for j in cols):
            for j in cols:
                out[:, j] = self.integers(highs[j])
            return out
        h = np.array([highs[j] for j in cols], dtype=np.uint64)
        m = self._next_uint32(self._all, len(cols)).reshape(-1, len(cols)) * h
        low = m & _U32
        out[:, cols] = m >> _W32
        if (low < h).any():
            slow = np.flatnonzero(
                (low < (np.uint64(1 << 32) - h) % h).any(axis=1))
            if len(slow):
                self._cur[slow] -= len(cols)
                for j in cols:
                    out[slow, j] = self.integers(highs[j], slow)
        return out

    def stream(self, i: int) -> Pcg64Stream:
        """Lane i as a `Pcg64Stream` at its current position: the stream
        (seed, (start + i,)), continued from here."""
        rng = RngStream._seeded(self.seed, (self.start + i,),
                                tuple(self._words[i].tolist()))
        stream = Pcg64Stream(rng)
        if self._hi is not None:
            self._settle()
            stream.state = {
                "state": {"state": int(self._hi[i]) << 64 | int(self._lo[i]),
                          "inc": int(self._inc[0][i]) << 64
                          | int(self._inc[1][i])},
                "has_uint32": int(self._has[i]),
                "uinteger": int(self._buf[i])}
        return stream


def sample_gnm(n: int, k: int, m: int, rng) -> OrderedHypergraph:
    """Uniform m-edge k-graph with a uniform edge order.

    Every prefix of the result is itself a uniform smaller instance, so the
    output doubles as a trajectory of the sequential uniform process.  Step
    t swaps in the pool edge `integers(t, C)`, drawn from
    `Pcg64Stream.of(rng)`.
    """
    draw = Pcg64Stream.of(rng).integers
    pool = list(edge_pool(n, k).edges)
    total = len(pool)
    if not 0 <= m <= total:
        raise DomainError(f"m={m} outside 0..{total}")
    for t in range(m):
        j = draw(t, total)
        pool[t], pool[j] = pool[j], pool[t]
    return OrderedHypergraph._from_canonical(n, k, pool[:m])


def sample_gnp(n: int, k: int, p: float, rng) -> Hypergraph:
    """Binomial k-graph: each possible edge kept independently with chance p."""
    stream = Pcg64Stream.of(rng)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    pool = edge_pool(n, k).edges
    with stream.handoff() as gen:
        mask = gen.random(len(pool)) < p
    return Hypergraph(n, k, [e for e, keep in zip(pool, mask) if keep])


@dataclass(frozen=True)
class MultiExtension:
    """One configuration-model draw: the base plus a multi-edge tail."""

    base: OrderedHypergraph
    tail: tuple[MultiEdge, ...]

    def is_simple(self) -> bool:
        return is_simple(chain(self.base, self.tail))


def _residual_vector(G: OrderedHypergraph, params: Params) -> np.ndarray:
    """The residual vertex copies of prefix G: vertex v repeated d - deg(v)
    times, in vertex order.  Raises as `residual_degrees` does."""
    return np.repeat(np.arange(params.n + 1, dtype=np.int64),
                     residual_degrees(G, params))


def sample_multi_extension(G: OrderedHypergraph, params: Params,
                           rng) -> MultiExtension:
    """Uniform vertex-copy permutation of the residual multiset, chopped into
    k-blocks.  Blocks are reported sorted; block order is kept."""
    with Pcg64Stream.of(rng).handoff() as gen:
        perm = gen.permutation(_residual_vector(G, params))
    blocks = np.sort(perm.reshape(-1, params.k), axis=1)
    tail = tuple(tuple(int(x) for x in row) for row in blocks)
    return MultiExtension(base=G, tail=tail)


# cells of one batch of attempts: 128 KB of int64 vertex copies
_BATCH_CELLS = 1 << 14


def _configuration_rejection(G: OrderedHypergraph, params: Params,
                             stream: Pcg64Stream, limit: int,
                             first: bool) -> tuple[np.ndarray | None, int, int]:
    """Configuration-model attempts on the residual multiset of G.

    Attempt i is the i-th of successive `gen.permutation(vector)` calls on
    the vertex copies, by the Generator that `stream` hands off, chopped
    into k-blocks; it is simple when no block repeats a vertex, a block or
    an edge of G.  Attempts are drawn in batches, each batch one
    `gen.permuted` call whose rows are exactly those successive
    permutations; the first batch is one row and each next one doubles, up
    to _BATCH_CELLS cells, in one tile allocated per call.  Loops are found
    on the unsorted rows, one column pair of the blocks at a time; only
    loop-free rows are sorted and tested for repeated blocks.  With
    `first`, the run stops at the first simple attempt, and the stream is
    placed just after it by `Pcg64Stream.defer_replay` from the state saved
    before its batch: the rows up to it are redrawn only if the stream is
    read again.  Otherwise exactly `limit` attempts are drawn.

    Returns (blocks, successes, attempts): the sorted k-blocks of the first
    simple attempt when `first` found one (else None), the number of simple
    attempts and the number of attempts drawn.
    """
    k = params.k
    vector = _residual_vector(G, params)
    width = len(vector)
    slots = width // k
    cap = max(1, _BATCH_CELLS // max(width, 1))
    # a block is a loop when two of its k columns agree: loop-free cells
    # are and-ed in place over the column pairs, compared as views
    (a, c), *pairs = combinations(range(k), 2)
    # base-(n+1) code of a sorted block, injective on sorted blocks; a
    # loop-free row is simple when its codes and G's edge codes are all
    # distinct, i.e. their union has slots + |G| members
    radix = [(params.n + 1) ** i for i in range(k)]
    base_codes = frozenset(sum(v * r for v, r in zip(e, radix))
                           for e in G.edges)
    distinct = slots + len(G)
    powers = np.array(radix, dtype=np.int64)
    tile = np.empty((min(cap, limit), width), dtype=np.int64)
    block_free = np.empty((len(tile), slots), dtype=bool)
    pair_free = np.empty_like(block_free)

    successes = attempts = 0
    size = 1
    with stream.handoff() as gen:
        while attempts < limit:
            b = min(size, limit - attempts)
            saved = gen.bit_generator.state if first and b > 1 else None
            rows = tile[:b]
            rows[...] = vector
            blocks = gen.permuted(rows, axis=1, out=rows).reshape(b, slots, k)
            free = np.not_equal(blocks[:, :, a], blocks[:, :, c],
                                out=block_free[:b])
            for x, y in pairs:
                free &= np.not_equal(blocks[:, :, x], blocks[:, :, y],
                                     out=pair_free[:b])
            loop_free = free.all(axis=1).nonzero()[0]
            if len(loop_free):
                # loop-free rows are few wherever rejection is costly, so
                # they are tested one by one
                kept = blocks[loop_free]
                kept.sort(axis=2)
                hits = [j for j, codes in enumerate((kept @ powers).tolist())
                        if len(base_codes.union(codes)) == distinct]
                if first and hits:
                    i = int(loop_free[hits[0]])
                    if i < b - 1:
                        stream.defer_replay(saved, i + 1, width)
                    return kept[hits[0]], 1, attempts + i + 1
                successes += len(hits)
            attempts += b
            size = min(2 * size, cap)
    return None, successes, attempts


def sample_regular(G: OrderedHypergraph, params: Params, rng,
                   max_attempts: int | None = None) -> OrderedHypergraph:
    """Uniform ordered d-regular extension of G by configuration rejection.

    The sample is the first simple attempt among successive permutations of
    the residual vertex copies, drawn by the Generator that
    `Pcg64Stream.of(rng)` hands off; attempts are drawn and checked in
    batches, and the stream is left exactly after the accepted attempt, as
    if the permutations had been drawn one at a time (the rows of its batch
    up to it are redrawn only when the stream is read again).  For an empty
    base with d beyond half the complete degree the complement family is
    sampled instead and complemented back (a bijection between the two
    uniform families), with a fresh uniform edge order drawn after it from
    the same stream; rejection there would practically never accept.  Raises
    RejectionBudgetError after max_attempts failures, which may mean G is
    inadmissible.
    """
    stream = Pcg64Stream.of(rng)
    if max_attempts is None:
        max_attempts = DEFAULT_MAX_ATTEMPTS
    if max_attempts < 1:
        raise DomainError("max_attempts must be positive")
    if len(G) == 0 and params.d > params.max_degree:
        raise DomainError(
            f"no {params.d}-regular k-graph exists on n={params.n}: "
            f"complete degree is {params.max_degree}"
        )
    if len(G) == 0 and params.d > params.max_degree // 2:
        return _sample_regular_complement(params, stream)

    blocks, _, _ = _configuration_rejection(G, params, stream, max_attempts,
                                            first=True)
    if blocks is not None:
        tail = tuple(zip(*blocks.T.tolist()))
        return OrderedHypergraph._from_canonical(params.n, params.k,
                                                 G.edges + tail)
    raise RejectionBudgetError(
        f"no simple extension in {max_attempts} attempts at n={params.n} "
        f"k={params.k} d={params.d} |G|={len(G)}; G may be inadmissible or "
        f"the acceptance chance too small for rejection"
    )


def _sample_regular_complement(params: Params,
                               stream: Pcg64Stream) -> OrderedHypergraph:
    d_comp = params.max_degree - params.d
    comp = OrderedHypergraph(params.n, params.k)
    if d_comp:
        comp = sample_regular(comp, Params(params.n, params.k, d_comp), stream)
    kept = list(complement_edges(comp))
    with stream.handoff() as gen:
        order = gen.permutation(len(kept))
    return OrderedHypergraph._from_canonical(params.n, params.k,
                                             [kept[i] for i in order])


@dataclass
class SimplicityEstimate:
    """Monte Carlo estimate of the chance a configuration draw is simple."""

    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    exact: Fraction | None


def exact_simplicity_from_count(G: OrderedHypergraph,
                                params: Params) -> Fraction:
    """P(simple) through `oracle.completion_count` of G (see
    `simplicity_from_completions`); raises OracleBudgetError when the count
    refuses.

    This is the identity route; `oracle.exact_simplicity_probability` is the
    independent direct enumeration.
    """
    return simplicity_from_completions(G, params,
                                       oracle.completion_count(G, params))


def simplicity_from_completions(G: OrderedHypergraph, params: Params,
                                unordered_count: int) -> Fraction:
    """P(simple) from the number |R_G| of unordered completions of G:
    |R_G| (M-t)! (k!)^(M-t) / N_G, with N_G the number of arrangements of
    the residual vertex copies.  Raises InadmissiblePrefixError when a
    vertex of G exceeds degree d."""
    t = len(G)
    return Fraction(unordered_count * math.factorial(params.M - t)
                    * math.factorial(params.k) ** (params.M - t),
                    oracle.residual_multiset_permutations(G, params))


def simplicity_probability(G: OrderedHypergraph, params: Params, trials: int,
                           rng, exact: str = "auto") -> SimplicityEstimate:
    """Estimate P(configuration draw simple); attach the exact value when the
    instance is small enough to count.  exact='auto' takes it from
    `exact_simplicity_from_count` and attaches None when
    `oracle.completion_count` refuses; 'never' does not count."""
    stream = Pcg64Stream.of(rng)
    if trials < 1:
        raise DomainError("trials must be positive")
    modes = ("auto", "never")
    if exact not in modes:
        raise DomainError(f"exact must be one of {modes}, got {exact!r}")
    value = None
    if exact == "auto":
        try:
            value = exact_simplicity_from_count(G, params)
        except oracle.OracleBudgetError:
            pass
    _, successes, _ = _configuration_rejection(G, params, stream, trials,
                                               first=False)
    p_hat = successes / trials
    low, high = wilson_interval(successes, trials)
    return SimplicityEstimate(trials=trials, successes=successes, p_hat=p_hat,
                              ci_low=low, ci_high=high, exact=value)
