"""Random k-graph generation.

Uniform m-edge graphs arrive as ordered prefixes (partial Fisher-Yates over
the edge list), binomial graphs as plain edge sets, and uniform d-regular
extensions by rejection: permute the residual vertex-copy multiset, chop it
into k-blocks, keep the result iff it is simple.  Conditioned on acceptance
the result is uniform over ordered regular extensions of the base.

A regular sample is the first simple row among successive
`gen.permutation(vector)` draws.  The rows are drawn and checked in
batches, each one `gen.permuted` call, and the generator is left exactly
after the accepted row, where drawing the permutations one at a time would
have left it.

Trial i of a batch draws from the stream (seed, (i,)): a PCG64 seeded by
numpy's `SeedSequence(seed, spawn_key=(i,))`.  `RngStream.trials` computes
the four seed words of every trial of a batch in one vectorised pass,
bit for bit what `SeedSequence.generate_state(4, np.uint64)` returns, so
no stream depends on which of the two paths built it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
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
    (seed, path) always yields the same generator.  Streams made by `trials`
    carry their seed words, which only make `generator` cheaper.
    """

    seed: int
    path: tuple[int, ...] = ()
    _words: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @classmethod
    def trials(cls, seed: int, count: int) -> list["RngStream"]:
        """The streams (seed, (i,)) of trials i = 0..count-1, seeded in bulk
        by `trial_seed_words`."""
        streams = []
        for i, words in enumerate(trial_seed_words(seed, count)):
            stream = cls(seed, (i,))
            object.__setattr__(stream, "_words", words)
            streams.append(stream)
        return streams

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        if self._words is not None:
            ss = _seed_words(self._words)
        else:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def trial_seed_words(seed: int, count: int) -> np.ndarray:
    """Row i is `SeedSequence(seed, spawn_key=(i,)).generate_state(4,
    np.uint64)`, for i = 0..count-1.

    numpy's hashing, transcribed on uint32 arrays, which wrap as its C code
    does.  The entropy words are the seed's 32-bit words, zero-padded to the
    pool size of 4, then the spawn word i.  That comes last, so the pool is
    hashed from the seed once, on one-element arrays, and only the spawn
    word's mixing and the eight output words run over all trials at once.
    """
    seed, count = operator.index(seed), operator.index(count)
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    if not 0 <= count <= 1 << 32:
        raise DomainError(f"trial count {count} outside 0..2^32")
    u32 = np.uint32
    entropy = []
    while seed or not entropy:
        entropy.append(np.full(1, seed & _MASK32, dtype=u32))
        seed >>= 32
    entropy += [np.zeros(1, dtype=u32)] * (4 - len(entropy))
    entropy.append(np.arange(count, dtype=u32))
    mult = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal mult
        value = value ^ u32(mult)
        mult = mult * _MULT_A & _MASK32
        value = value * u32(mult)
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = u32(_MIX_L) * x - u32(_MIX_R) * y
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))

    state = np.empty((count, 8), dtype="<u4")
    mult = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ u32(mult)
        mult = mult * _MULT_B & _MASK32
        value = value * u32(mult)
        state[:, i] = value ^ value >> 16
    # word pairs read as little-endian uint64, as generate_state does
    return state.view("<u8").astype(np.uint64, copy=False)


_SeedWords = None


def _seed_words(words: np.ndarray):
    """A seed sequence that hands PCG64 the given four uint64 words.

    The class subclasses numpy's `ISeedSequence`, so it is defined on first
    use: importing `numpy.random` at module import would cost every CLI call
    its import time, including those that draw nothing.
    """
    global _SeedWords
    if _SeedWords is None:
        from numpy.random.bit_generator import ISeedSequence

        class _SeedWords(ISeedSequence):
            def __init__(self, words: np.ndarray) -> None:
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                if n_words != 4 or dtype is not np.uint64:
                    raise DomainError("seed words only seed PCG64")
                return self.words

    return _SeedWords(words)


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or a ready numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def sample_gnm(n: int, k: int, m: int, rng) -> OrderedHypergraph:
    """Uniform m-edge k-graph with a uniform edge order.

    Every prefix of the result is itself a uniform smaller instance, so the
    output doubles as a trajectory of the sequential uniform process.
    """
    gen = as_generator(rng)
    pool = list(edge_pool(n, k).edges)
    total = len(pool)
    if not 0 <= m <= total:
        raise DomainError(f"m={m} outside 0..{total}")
    for t in range(m):
        j = int(gen.integers(t, total))
        pool[t], pool[j] = pool[j], pool[t]
    return OrderedHypergraph._from_canonical(n, k, pool[:m])


def sample_gnp(n: int, k: int, p: float, rng) -> Hypergraph:
    """Binomial k-graph: each possible edge kept independently with chance p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    gen = as_generator(rng)
    pool = edge_pool(n, k).edges
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
    gen = as_generator(rng)
    perm = gen.permutation(_residual_vector(G, params))
    blocks = np.sort(perm.reshape(-1, params.k), axis=1)
    tail = tuple(tuple(int(x) for x in row) for row in blocks)
    return MultiExtension(base=G, tail=tail)


# cells of one batch of attempts: 128 KB of int64 vertex copies
_BATCH_CELLS = 1 << 14


def _configuration_rejection(G: OrderedHypergraph, params: Params,
                             gen: np.random.Generator, limit: int,
                             first: bool) -> tuple[np.ndarray | None, int, int]:
    """Configuration-model attempts on the residual multiset of G.

    Attempt i is the i-th of successive `gen.permutation(vector)` calls on
    the vertex copies, chopped into k-blocks; it is simple when no block
    repeats a vertex, a block or an edge of G.  Attempts are drawn in
    batches, each batch one `gen.permuted` call whose rows are exactly those
    successive permutations; the first batch is one row and each next one
    doubles, up to _BATCH_CELLS cells.  Loops are found on the unsorted
    rows; only loop-free rows are sorted and tested for repeated blocks.
    With `first`, the run stops at the first simple attempt and the
    generator is rewound to just after it (the batch is redrawn up to that
    row from the state saved before it); otherwise exactly `limit` attempts
    are drawn.

    Returns (blocks, successes, attempts): the sorted k-blocks of the first
    simple attempt when `first` found one (else None), the number of simple
    attempts and the number of attempts drawn.
    """
    k = params.k
    vector = _residual_vector(G, params)
    width = len(vector)
    slots = width // k
    cap = max(1, _BATCH_CELLS // max(width, 1))
    # a block is a loop when two of its k columns agree
    left, right = np.array(list(combinations(range(k), 2))).T
    # base-(n+1) code of a sorted block, injective on sorted blocks; a
    # loop-free row is simple when its codes and G's edge codes are all
    # distinct, i.e. their union has slots + |G| members
    radix = [(params.n + 1) ** i for i in range(k)]
    base_codes = frozenset(sum(v * r for v, r in zip(e, radix))
                           for e in G.edges)
    distinct = slots + len(G)
    powers = np.array(radix, dtype=np.int64)

    def draw(rows: int) -> np.ndarray:
        tile = np.empty((rows, width), dtype=np.int64)
        tile[...] = vector
        return gen.permuted(tile, axis=1, out=tile).reshape(rows, slots, k)

    successes = attempts = 0
    size = 1
    while attempts < limit:
        b = min(size, limit - attempts)
        saved = gen.bit_generator.state if first and b > 1 else None
        blocks = draw(b)
        loop_free = (blocks[:, :, left] != blocks[:, :, right]).all(axis=(1, 2))
        kept = blocks[loop_free]
        if len(kept):
            # loop-free rows are few wherever rejection is costly, so they
            # are tested one by one
            kept.sort(axis=2)
            hits = [j for j, codes in enumerate((kept @ powers).tolist())
                    if len(base_codes.union(codes)) == distinct]
            if first and hits:
                i = int(loop_free.nonzero()[0][hits[0]])
                if i < b - 1:
                    gen.bit_generator.state = saved
                    draw(i + 1)
                return kept[hits[0]], 1, attempts + i + 1
            successes += len(hits)
        attempts += b
        size = min(2 * size, cap)
    return None, successes, attempts


def sample_regular(G: OrderedHypergraph, params: Params, rng,
                   max_attempts: int | None = None) -> OrderedHypergraph:
    """Uniform ordered d-regular extension of G by configuration rejection.

    The sample is the first simple attempt among successive permutations of
    the residual vertex copies; attempts are drawn and checked in batches,
    and the generator is left exactly after the accepted attempt, as if the
    permutations had been drawn one at a time.  For an empty base with d
    beyond half the complete degree the complement family is sampled
    instead and complemented back (a bijection between the two uniform
    families), with a fresh uniform edge order; rejection there would
    practically never accept.  Raises RejectionBudgetError after
    max_attempts failures, which may mean G is inadmissible.
    """
    gen = as_generator(rng)
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
        return _sample_regular_complement(params, gen)

    blocks, _, _ = _configuration_rejection(G, params, gen, max_attempts,
                                            first=True)
    if blocks is not None:
        tail = tuple(map(tuple, blocks.tolist()))
        return OrderedHypergraph._from_canonical(params.n, params.k,
                                                 G.edges + tail)
    raise RejectionBudgetError(
        f"no simple extension in {max_attempts} attempts at n={params.n} "
        f"k={params.k} d={params.d} |G|={len(G)}; G may be inadmissible or "
        f"the acceptance chance too small for rejection"
    )


def _sample_regular_complement(params: Params, gen: np.random.Generator) -> OrderedHypergraph:
    d_comp = params.max_degree - params.d
    comp = OrderedHypergraph(params.n, params.k)
    if d_comp:
        comp = sample_regular(comp, Params(params.n, params.k, d_comp), gen)
    kept = list(complement_edges(comp))
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


def exact_simplicity_from_count(G: OrderedHypergraph, params: Params,
                                budget: int | None = None) -> Fraction:
    """P(simple) through the completion count of G (see
    `simplicity_from_completions`).

    This is the identity route; `oracle.exact_simplicity_probability` is the
    independent direct enumeration.
    """
    u = oracle.count_extensions(G, params, budget=budget).unordered_count
    return simplicity_from_completions(G, params, u)


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
                           rng, exact: str = "auto",
                           exact_budget: int = 2_000_000) -> SimplicityEstimate:
    """Estimate P(configuration draw simple); attach the exact value when the
    instance is small enough to count (exact='auto'|'never'|'require')."""
    if trials < 1:
        raise DomainError("trials must be positive")
    value = oracle.exact_or_none(exact, lambda: exact_simplicity_from_count(
        G, params, budget=exact_budget))
    _, successes, _ = _configuration_rejection(G, params, as_generator(rng),
                                               trials, first=False)
    p_hat = successes / trials
    low, high = wilson_interval(successes, trials)
    return SimplicityEstimate(trials=trials, successes=successes, p_hat=p_hat,
                              ci_low=low, ci_high=high, exact=value)
