"""Exact oracles for regular extension families at desk scale.

Every probability and identity here comes out as an exact Fraction.
Every count is charged to one environment budget of nodes (`node_budget`)
and raises OracleBudgetError past it rather than truncate.  Four routes
are kept deliberately separate:

* `completion_count` answers every "how many completions?" question that
  lists nothing, by a forward pass over residual degree vectors, and
  refuses past its own caps on codes, states and weights too;
* `count_extensions` lists unordered completions with one vectorised
  sweep over the edge pool in lexicographic order, into the one
  column-major store of an `ExtensionFamily`, whose column filter and
  column sum give every listed count, every exact law and every
  `PrefixTree` node;
* `focus_count` counts them by focus-vertex backtracking (always satisfy
  the smallest deficient vertex first), a plain int that only the tests
  and demos read: the independent second opinion on the other two;
* `exact_simplicity_probability` counts ordered simple tails
  edge-by-edge and converts to a probability over vertex-copy
  permutations.

Tests tie them together through the configuration-model identity
P(simple) * N_G = |R_G| * (k!)^(M-t), where N_G is the number of
distinct permutations of the residual vertex-copy multiset.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations

import numpy as np

from .core import (
    DomainError,
    Edge,
    EdgePool,
    InadmissiblePrefixError,
    OrderedHypergraph,
    Params,
    edge_pool,
    make_edge,
    residual_degrees,
)

DEFAULT_NODE_BUDGET = 100_000_000
ENV_NODE_BUDGET = "HYPERCOUPLE_NODE_BUDGET"

class OracleBudgetError(RuntimeError):
    """Enumeration exceeded its node budget; no silent truncation."""


def _budget_error(budget: int) -> OracleBudgetError:
    return OracleBudgetError(
        f"enumeration exceeded {budget} nodes; raise {ENV_NODE_BUDGET} "
        f"if this size is intended")


def node_budget() -> int:
    """The one enumeration budget: the environment variable, else the
    default."""
    raw = os.environ.get(ENV_NODE_BUDGET)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise DomainError(f"bad {ENV_NODE_BUDGET}={raw!r}") from exc
        if value < 1:
            raise DomainError(f"bad {ENV_NODE_BUDGET}={raw!r}")
        return value
    return DEFAULT_NODE_BUDGET


KINDS = ("remove_edge", "pair_degree", "codegree")


def switching_target(kind: str, n: int, k: int, edge: Edge | None = None,
                     pair: tuple[int, int] | None = None) -> tuple[int, ...]:
    """The one check of a switching request on (n, k): its target, the
    canonical edge for remove_edge, else the marked pair (u, v) of two
    distinct vertices of 1..n."""
    if kind not in KINDS:
        raise DomainError(f"unknown switching kind {kind!r}")
    if kind == "remove_edge":
        if edge is None:
            raise DomainError("remove_edge switching needs edge=")
        return make_edge(edge, n, k)
    if pair is None:
        raise DomainError(f"{kind} switching needs pair=")
    u, v = pair
    if u == v:
        raise DomainError("pair must name two distinct vertices")
    if not (1 <= u <= n and 1 <= v <= n):
        raise DomainError(f"vertices u={u}, v={v} must lie in 1..{n}")
    return u, v


def check_edge_presence(e: Edge, forward: bool, fixed: bool, held) -> None:
    """remove_edge's presence rule: forward, edge e lies outside the fixed
    prefix G and in every member; backward, in neither G nor any member.
    `fixed` says whether G holds e, `held[i]` whether member i does."""
    if forward and fixed:
        raise DomainError(f"edge {e} lies in the fixed prefix G")
    if forward and not np.all(held):
        raise DomainError(f"edge {e} is not in H")
    if not forward and (fixed or np.any(held)):
        raise DomainError(f"edge {e} is present in the target graph")


@dataclass(frozen=True)
class StateLaw:
    """Next-edge law at one prefix state, in integer weights.

    support lists the absent edges lexicographically; weights are integer
    counts (probability = weight / total): completion counts for the exact
    law, next-edge counts over sampled completions for an estimate.
    min_ratio is the smallest probability divided by uniform, the
    near-uniformity statistic.
    """

    support: tuple[Edge, ...]
    weights: tuple[int, ...]
    cumulative: tuple[int, ...]
    total: int
    min_weight: int
    # excess cumulatives by epsilon, kept for the law's lifetime
    _excess: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @classmethod
    def from_weights(cls, support: tuple[Edge, ...], weights: tuple[int, ...],
                     total: int) -> "StateLaw":
        assert sum(weights) == total
        return cls(support=support, weights=weights,
                   cumulative=tuple(accumulate(weights)), total=total,
                   min_weight=min(weights))

    @property
    def min_ratio(self) -> Fraction:
        return Fraction(self.min_weight * len(self.support), self.total)

    def near_uniform(self, eps: Fraction) -> bool:
        """min_ratio >= 1 - eps, as one integer comparison."""
        return (self.min_weight * len(self.support) * eps.denominator
                >= self.total * (eps.denominator - eps.numerator))

    def distribution(self) -> dict[Edge, Fraction]:
        return {e: Fraction(w, self.total)
                for e, w in zip(self.support, self.weights)}

    def excess(self, eps: Fraction) -> tuple[tuple[int, ...], int]:
        """Cumulative integer weights and total of the excess law
        (p - (1-eps) * uniform) / eps over `support`, computed once per eps.

        Only defined at near-uniform states (min_ratio >= 1 - eps); the
        weights share the denominator total * eps.denominator * |support|.
        """
        hit = self._excess.get(eps)
        if hit is not None:
            return hit
        absent = len(self.support)
        base = (eps.denominator - eps.numerator) * self.total
        weights = [w * eps.denominator * absent - base for w in self.weights]
        if min(weights) < 0:
            raise DomainError("excess law undefined: state is not near-uniform")
        cumulative = tuple(accumulate(weights))
        assert cumulative[-1] == eps.numerator * self.total * absent
        hit = self._excess[eps] = cumulative, cumulative[-1]
        return hit


# completions one column sum counts at a time
_SUM_ROWS = 1 << 16


@dataclass(eq=False)
class ExtensionFamily:
    """The listed completions of a prefix G to a d-regular k-graph.

    The family keeps its completion tails packed column-major, in the
    lexicographic order of the tails: bit c & 7 of `packed[c >> 3, i]` is
    set iff tail i contains the c-th edge of the lexicographic edge pool.
    `unordered_count`, the number of completion edge-sets, is the number of
    columns of `packed`, and the family is admissible when it is positive;
    the ordered family (all ways to expose the remaining edges one by one)
    is larger by a factor (M-t)!.  Every exact count below goes through two
    reads of `packed`: `with_column`, the completions holding one pool
    edge, so U(G+S) is the number left after one filter per edge of S;
    and `column_sums`, whose sums over those completions are the
    next-edge weights.
    """

    params: Params
    base: frozenset[Edge]
    packed: np.ndarray
    nodes_used: int = 0

    @property
    def unordered_count(self) -> int:
        return self.packed.shape[1]

    @property
    def admissible(self) -> bool:
        return self.unordered_count > 0

    @property
    def base_size(self) -> int:
        return len(self.base)

    @property
    def ordered_count(self) -> int:
        return self.unordered_count * math.factorial(self.params.M - self.base_size)

    @property
    def pool(self) -> EdgePool:
        """The edge pool whose columns `packed` holds."""
        return edge_pool(self.params.n, self.params.k)

    def with_column(self, c: int, among: np.ndarray | None = None
                    ) -> np.ndarray:
        """Indices (int32, increasing) of the completions, among the
        indices `among` (None: all), whose tail holds pool column c."""
        column, bit = self.packed[c >> 3], 1 << (c & 7)
        if among is None:
            return np.flatnonzero(column & bit).astype(np.int32)
        return among[(column[among] & bit) != 0]

    def column_sums(self, among: np.ndarray | None = None) -> np.ndarray:
        """How many of the completions `among` (None: all) hold each pool
        column, unpacked _SUM_ROWS completions at a time."""
        width, total = self.packed.shape
        sums = np.zeros(8 * width, dtype=np.int64)
        for a in range(0, total if among is None else len(among), _SUM_ROWS):
            block = (self.packed[:, a:a + _SUM_ROWS] if among is None
                     else self.packed[:, among[a:a + _SUM_ROWS]])
            sums += np.unpackbits(block.T, axis=1, bitorder="little").sum(
                axis=0, dtype=np.int64)
        return sums

    @cached_property
    def tails(self) -> np.ndarray:
        """Pool columns of each completion tail: one increasing row of
        M - t column indices per completion, in the listing order."""
        # unpacking a row-major copy is faster than unpacking the strided
        # transposed view
        rows = np.ascontiguousarray(self.packed.T)
        bits = np.unpackbits(rows, axis=1, count=len(self.pool.edges),
                             bitorder="little")
        columns = np.broadcast_to(np.arange(bits.shape[1]), bits.shape)
        tails = columns[bits.view(bool)].reshape(
            self.unordered_count, self.params.M - self.base_size)
        tails.flags.writeable = False
        return tails

    @cached_property
    def present(self) -> np.ndarray:
        """Membership rows, read-only: row i is True at the pool columns of
        the base and of completion i's tail, as the switching kernels read
        a member."""
        rows = np.ascontiguousarray(self.packed.T)
        present = np.unpackbits(rows, axis=1, count=len(self.pool.edges),
                                bitorder="little").view(bool)
        present[:, [self.pool.column(e) for e in self.base]] = True
        present.flags.writeable = False
        return present

    @property
    def completions(self) -> list[tuple[Edge, ...]]:
        """Tails as lexicographically sorted edge tuples, in the listing's
        lexicographic order."""
        pool = self.pool.edges
        return [tuple(pool[c] for c in row) for row in self.tails.tolist()]

    def holds(self, e: Edge) -> np.ndarray:
        """Mask over the listed completions: does the tail contain edge e?"""
        mask = np.zeros(self.unordered_count, dtype=bool)
        mask[self.with_column(self.pool.column(e))] = True
        return mask

    def restrict(self, which) -> "ExtensionFamily":
        """The listed completions that `which` (a boolean mask or index
        array over them) selects, as a family over the same base; it
        shares this family's unpacked tails instead of unpacking again."""
        tails = self.tails[which]
        sub = ExtensionFamily(params=self.params, base=self.base,
                              packed=self.packed[:, which])
        sub.__dict__["tails"] = tails  # fills the cached property
        return sub

    def rows_with(self, edges) -> np.ndarray:
        """Indices of the completions containing every edge of `edges`
        outside the base; there are U(G + edges) of them."""
        rows = np.arange(self.unordered_count, dtype=np.int32)
        for e in set(edges) - self.base:
            rows = self.with_column(self.pool.column(e), rows)
        return rows

    def state(self, edges: frozenset[Edge]) -> StateLaw:
        """Exact next-edge law at the prefix state `edges` (the base among
        them), filtered afresh from every listed completion; the coupling
        walks a `PrefixTree` instead."""
        params, t = self.params, len(edges)
        if t >= params.M:
            raise DomainError("prefix already has M edges; no next edge exists")
        rows = self.rows_with(edges)
        if len(rows) == 0:
            raise DomainError("prefix is inadmissible; next-edge law undefined")
        sums = self.column_sums(rows).tolist()
        pool = self.pool.edges
        return StateLaw.from_weights(
            tuple(e for e in pool if e not in edges),
            tuple(w for e, w in zip(pool, sums) if e not in edges),
            len(rows) * (params.M - t))


class _FocusBacktracker:
    """Count unordered completions, always serving the smallest deficient
    vertex next; within a stage, incident edges are chosen in increasing
    lexicographic order, so each completion is visited exactly once."""

    def __init__(self, n: int, k: int, residual: list[int],
                 forbidden: set[Edge], budget: int) -> None:
        self.n = n
        self.k = k
        self.residual = residual  # index 0 unused
        self.forbidden = forbidden
        self.budget = budget
        self.count = 0
        self.nodes = 0

    def run(self) -> None:
        self._fill()

    def _fill(self) -> None:
        r = self.residual
        focus = 0
        for v in range(1, self.n + 1):
            if r[v] > 0:
                focus = v
                break
        if focus == 0:
            self.count += 1
            return
        available = [w for w in range(focus + 1, self.n + 1) if r[w] > 0]
        cands = [
            (focus,) + rest
            for rest in combinations(available, self.k - 1)
            if (focus,) + rest not in self.forbidden
        ]
        self._assign(focus, r[focus], cands, 0)

    def _assign(self, v: int, needed: int, cands: list[Edge], start: int) -> None:
        if needed == 0:
            self._fill()
            return
        r = self.residual
        for i in range(start, len(cands)):
            if len(cands) - i < needed:
                break
            e = cands[i]
            self.nodes += 1
            if self.nodes > self.budget:
                raise _budget_error(self.budget)
            if any(r[w] == 0 for w in e[1:]):
                continue
            for w in e:
                r[w] -= 1
            self._assign(v, needed - 1, cands, i + 1)
            for w in e:
                r[w] += 1


# a sweep chunk holding more live tails than this is sorted and halved, the
# second half waiting on a stack, so the sweep runs depth-first over chunks
# of bounded size
_SWEEP_ROWS = 1 << 14
# bytes a listing may hold at once: listed tails, waiting chunks and the
# current chunk, its spare capacity included
_LIST_BYTES = 1 << 28


def _in_order(bits: np.ndarray, which: np.ndarray,
              reversed_bytes: np.ndarray) -> np.ndarray:
    """The rows `which` of the packed tail bits `bits` (one byte per eight
    pool columns), in the lexicographic order of their tails.

    Of two tails that agree on every pool column before c and differ at c,
    the one holding c comes first; so with the bits of each byte reversed
    (pool column 8j as the top bit of byte j) the byte rows sort
    descending."""
    keys = reversed_bytes[bits[which]]
    return which[np.lexsort(keys.T[::-1])[::-1]]


def _sweep_completions(pool: EdgePool, residual: np.ndarray | None,
                       base: frozenset[Edge],
                       budget: int) -> tuple[np.ndarray, int]:
    """List the completion tails, packed column-major (one byte row per
    eight pool columns), in lexicographic order.

    One pass over the edge pool in lexicographic order, a chunk of partial
    tails at a time.  A chunk row is one tail: a 1 while it lives, its
    residual degrees at vertices 1..n, then its packed tail bits.  At a
    free pool edge, every live tail with positive residuals at all the
    edge's vertices gets an include-child appended after the chunk's rows,
    and a tail whose residual at some vertex exceeds the free edges still
    to come through that vertex dies.  Dead rows are compacted away once
    they are half the chunk; a sort restores the lexicographic order when a
    chunk is halved and when it is listed.  Each include-child is one node
    charged to `budget`; holding more than _LIST_BYTES raises.
    """
    n, edges = pool.n, pool.vertices
    width = (len(edges) + 7) // 8
    free = np.ones(len(edges), dtype=bool)
    free[[pool.column(e) for e in base]] = False
    incidence = np.zeros((len(edges), n + 1), dtype=np.int64)
    np.put_along_axis(incidence, edges, 1, axis=1)
    incidence[~free] = 0
    through = incidence.sum(axis=0)
    if residual is None or (residual > through).any():
        # a vertex overflows, or cannot reach degree d: nothing to list
        return np.zeros((width, 0), dtype=np.uint8), 0
    dtype = np.min_scalar_type(max(1, residual.max()))
    # later[c, v]: free pool edges after edge c that contain vertex v, at
    # most what the residual type holds
    later = np.minimum(through - np.cumsum(incidence, axis=0),
                       np.iinfo(dtype).max).astype(dtype)
    # the columns a step reads: the live flag, then the edge's residuals
    read = np.column_stack([np.zeros(len(edges), dtype=np.intp), edges])
    reversed_bytes = np.packbits(np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1,
        bitorder="little").ravel()
    start = np.zeros((1, n + 1 + width), dtype=dtype)
    start[0, :n + 1] = residual
    start[0, 0] = 1
    row_bytes = start.nbytes
    listed, held, waiting, nodes = [], 0, row_bytes, 0
    stack = [(0, start)]

    def hold(rows: int) -> None:
        if held + waiting + rows * row_bytes > _LIST_BYTES:
            raise OracleBudgetError(
                f"listing would hold more than {_LIST_BYTES} bytes of "
                f"rows; this family is too large to list")

    while stack:
        c0, chunk = stack.pop()
        size, dead = len(chunk), 0
        waiting -= size * row_bytes
        for c in range(c0, len(edges)):
            if not free[c]:
                continue
            e = edges[c]
            at = chunk[:size, read[c]]
            take = np.flatnonzero((at > 0).all(axis=1))
            die = np.flatnonzero((at[:, 1:] > later[c, e]).any(axis=1)
                                 & (at[:, 0] > 0))
            born = len(take)
            if not born and not len(die):
                continue
            nodes += born
            if nodes > budget:
                raise _budget_error(budget)
            end = size + born
            if end > len(chunk):
                hold(2 * end)
                grown = np.empty((2 * end, chunk.shape[1]), dtype=dtype)
                grown[:size] = chunk[:size]
                chunk = grown
            kids = chunk[size:end]
            np.take(chunk, take, axis=0, out=kids)
            kids[:, e] -= 1
            kids[:, n + 1 + (c >> 3)] |= 1 << (c & 7)
            chunk[die, 0] = 0
            size, dead = end, dead + len(die)
            if 2 * dead > size or size - dead > _SWEEP_ROWS:
                live = np.flatnonzero(chunk[:size, 0])
                if len(live) > _SWEEP_ROWS:
                    live = _in_order(chunk[:, n + 1:], live, reversed_bytes)
                    live, rest = np.array_split(live, 2)
                    hold(len(chunk) + len(rest))
                    stack.append((c + 1, chunk[rest]))
                    waiting += len(rest) * row_bytes
                size, dead = len(live), 0
                chunk[:size] = chunk[live]
                if not size:
                    break
        bits = chunk[:, n + 1:]
        tails = bits[_in_order(bits, np.flatnonzero(chunk[:size, 0]),
                               reversed_bytes)].T.astype(np.uint8, copy=False)
        held += tails.nbytes
        listed.append(tails)
    return np.concatenate(listed, axis=1), nodes


def count_extensions(G: OrderedHypergraph, params: Params) -> ExtensionFamily:
    """List the d-regular completions of prefix G.

    A prefix with a vertex above degree d lists no completion (an
    inadmissible family) rather than raising; exceeding `node_budget()`
    raises OracleBudgetError, as does a listing that would hold more than
    _LIST_BYTES.  A count that lists nothing is `completion_count`'s job.
    """
    try:
        residual = residual_degrees(G, params)
    except InadmissiblePrefixError:
        residual = None
    base = frozenset(G.edge_set)
    packed, nodes = _sweep_completions(edge_pool(params.n, params.k),
                                       residual, base, node_budget())
    packed.flags.writeable = False  # cached families are shared
    return ExtensionFamily(params=params, base=base, packed=packed,
                           nodes_used=nodes)


def focus_count(G: OrderedHypergraph, params: Params) -> int:
    """U(G) by focus-vertex backtracking, charged to `node_budget()`; 0 for
    a prefix with a vertex above degree d.  The tests' and demos' second
    opinion on `completion_count` and on the listing: nothing in the
    package reads it."""
    try:
        residual = residual_degrees(G, params)
    except InadmissiblePrefixError:
        return 0
    bt = _FocusBacktracker(params.n, params.k, residual.tolist(),
                           set(G.edge_set), node_budget())
    bt.run()
    return bt.count


# states one pool edge's layer of a completion count may hold
_COUNT_STATES = 1 << 18


def completion_count(G: OrderedHypergraph, params: Params) -> int:
    """U(G), the number of d-regular completions of prefix G, by one
    forward pass over residual degree vectors; nothing is listed.

    The pool edges absent from G are taken in `core.edge_pool` order.  A
    state is a residual degree vector, coded in base d+1 (vertex v is digit
    v-1), with the number of partial completions that reach it.  An edge
    may be taken when each of its digits is positive, and taking it
    subtracts one from each; equal codes merge, their weights summed in
    int64.  Once the last edge whose least vertex is v has passed, states
    short at v are dropped.  U(G) is the weight of code 0 at the end, and
    0 for a prefix with a vertex above degree d.

    Each child state is one node charged to `node_budget()`.  Raises
    OracleBudgetError, having learnt nothing, when (d+1)^n does not fit
    int64, when a layer would hold more than _COUNT_STATES states, when
    the node budget runs out, or when a weight reaches 2^62 (so that no sum
    of two leaves int64).
    """
    try:
        residual = residual_degrees(G, params)
    except InadmissiblePrefixError:
        return 0
    n, base = params.n, params.d + 1
    if base ** n > np.iinfo(np.int64).max:  # base^n is place[n + 1]
        raise OracleBudgetError(
            f"a completion count codes residuals in {base}^{n} values, past "
            f"int64; this family is too large to count")
    pool = edge_pool(n, params.k)
    edges = pool.vertices
    # digit v of a code is positive iff the code modulo place[v + 1] is at
    # least place[v]
    place = np.zeros(n + 2, dtype=np.int64)
    place[1:] = base ** np.arange(n + 1, dtype=np.int64)
    step = place[edges].sum(axis=1)
    free = np.ones(len(edges), dtype=bool)
    free[[pool.column(e) for e in G.edge_set]] = False
    codes = np.array([residual @ place[:-1]], dtype=np.int64)  # sorted, distinct
    weights = np.ones(1, dtype=np.int64)
    budget, nodes = node_budget(), 0
    ceiling = 1  # at least the largest weight
    for c, e in enumerate(edges):
        if free[c]:
            take = np.arange(len(codes))
            for v in e:  # vertex by vertex, over the states still able
                take = take[codes[take] % place[v + 1] >= place[v]]
            nodes += len(take)
            if nodes > budget:
                raise _budget_error(budget)
            # children keep their parents' order, so they stay sorted
            kids, kid_weights = codes[take] - step[c], weights[take]
            at = np.searchsorted(codes, kids)
            old = at < len(codes)
            old[old] = codes[at[old]] == kids[old]
            weights[at[old]] += kid_weights[old]
            new = ~old
            codes = np.insert(codes, at[new], kids[new])
            weights = np.insert(weights, at[new], kid_weights[new])
            if len(codes) > _COUNT_STATES:
                raise OracleBudgetError(
                    f"a completion count would hold more than "
                    f"{_COUNT_STATES} states in a layer; this family is too "
                    f"large to count")
            if len(take):  # a merge at most doubles the largest weight
                ceiling *= 2
                if ceiling >= 1 << 62:
                    ceiling = int(weights.max())
                    if ceiling >= 1 << 62:
                        raise OracleBudgetError(
                            "a completion count reached 2^62; this family "
                            "is too large to count in int64")
        if c + 1 == len(edges) or edges[c + 1, 0] != e[0]:
            keep = codes % place[e[0] + 1] < place[e[0]]
            codes, weights = codes[keep], weights[keep]
    # a completion leaves every digit 0, and code 0 sorts first
    return int(weights[0]) if len(codes) and codes[0] == 0 else 0


# a few prefixes at a time: the oracles need one family per prefix under
# study (the coupling walks a `PrefixTree` instead)
@lru_cache(maxsize=8)
def _cached_family(params: Params, edges: frozenset[Edge]) -> ExtensionFamily:
    g = OrderedHypergraph._from_canonical(params.n, params.k, sorted(edges))
    return count_extensions(g, params)


def extension_family(G: OrderedHypergraph, params: Params) -> ExtensionFamily:
    """The listed completion family of prefix G, enumerated once per
    (n, k, d, edge set) and kept in a bounded least-recently-used cache."""
    if G.n != params.n or G.k != params.k:
        raise DomainError("graph and params disagree on (n, k)")
    return _cached_family(params, frozenset(G.edge_set))


# bytes of canonical row indices the nodes of one prefix tree hold at once
_TREE_ROW_BYTES = _LIST_BYTES // 4
# law weights the nodes of one prefix tree hold at once, at about 100 bytes
# a weight with the rest of each node
_TREE_WEIGHTS = 1 << 18


class _PrefixNode:
    """One prefix state of the exposure, with its exact next-edge law.

    `frame` maps each pool column c to the canonical column of
    σ_e^{-1}(c), where e is the first edge of the path that created the
    node, and `cols` are the canonical columns of the state's other edges.
    `rows` indexes the canonical completions that hold every column of
    `cols` (int32), or is None when they are not held.
    """

    __slots__ = ("edges", "t", "frame", "cols", "law", "rows", "children")

    def __init__(self, edges: frozenset[Edge], t: int, frame, cols,
                 law: StateLaw) -> None:
        self.edges = edges
        self.t = t
        self.frame = frame
        self.cols = cols
        self.law = law
        self.rows = None
        self.children: dict[Edge, _PrefixNode] = {}


class PrefixTree:
    """Exact next-edge laws at the prefix states of the exposure, read off
    one listed `ExtensionFamily`, `family`: the completions through the
    first edge (1..k).

    The empty prefix is vertex-transitive, which gives three identities.
    Every edge lies in the same number U1 of d-regular k-graphs, so the
    root law is uniform with weight U1 on each of the C pool edges.
    Counting each graph once per edge, U0 * M = C * U1, where U0 is the
    family size.  The graphs through a first edge e are the canonical ones
    relabelled by σ_e, which maps (1..k) onto e and the other vertices onto
    the rest in increasing order.  So a state whose first edge is e has for
    completions the canonical ones holding its other edges' canonical
    columns, and its law is their column sums read back through σ_e: the
    same `StateLaw` that the empty prefix's `ExtensionFamily.state` gives.

    `child(node, e)` takes one exposure step.  A new child filters its
    parent's completions with `family.with_column` and reads its weights
    off `family.column_sums`; a state reached in another order reuses its
    node.  Row indices are held within _TREE_ROW_BYTES, the least recently
    used dropped first (such a node filters the canonical completions
    again on its own state), and laws within _TREE_WEIGHTS weights, past
    which the tree is cut back to its root.
    """

    def __init__(self, params: Params) -> None:
        n, k, M = params.n, params.k, params.M
        first = tuple(range(1, k + 1))
        fam = count_extensions(
            OrderedHypergraph._from_canonical(n, k, [first]), params)
        if not fam.admissible:
            raise DomainError("no d-regular k-graph exists; next-edge law "
                              "undefined")
        self.params = params
        self.family = fam
        pool = fam.pool.edges
        size, rest = divmod(len(pool) * fam.unordered_count, M)
        assert rest == 0, "U0 * M = C * U1 failed"
        self.family_size = size
        self._first_sums = fam.column_sums()
        u1 = fam.unordered_count
        self.root = _PrefixNode(
            frozenset(), 0, None, (),
            StateLaw.from_weights(pool, (u1,) * len(pool), len(pool) * u1))
        self._nodes: dict[frozenset[Edge], _PrefixNode] = {}
        self._weights = 0
        self._held: dict[_PrefixNode, None] = {}  # oldest first
        self._held_bytes = 0

    def child(self, node: _PrefixNode, e: Edge) -> _PrefixNode:
        """The node of node's state plus the absent pool edge e."""
        hit = node.children.get(e)
        if hit is None:
            if e in node.edges:
                raise DomainError(f"{e} is already exposed")
            edges = node.edges | {e}
            hit = self._nodes.get(edges)
            if hit is None:
                hit = self._grow(node, e, edges)
            node.children[e] = hit
        return hit

    def _grow(self, parent: _PrefixNode, e: Edge,
              edges: frozenset[Edge]) -> _PrefixNode:
        M = self.params.M
        t = parent.t + 1
        if t >= M:
            raise DomainError("the state would hold all M edges; no next "
                              "edge exists")
        support = parent.law.support
        try:
            at = support.index(e)
        except ValueError:
            raise DomainError(f"{e} is not an absent pool edge") from None
        support = support[:at] + support[at + 1:]
        fam, pool = self.family, self.family.pool
        if parent.frame is None:
            # a first edge: σ_e maps every canonical completion onto one
            frame, cols, rows = self._frame(e), (), None
            count, sums = fam.unordered_count, self._first_sums
        else:
            frame = parent.frame
            cols = parent.cols + (int(frame[pool.column(e)]),)
            rows = fam.with_column(cols[-1], self._rows(parent))
            count, sums = len(rows), fam.column_sums(rows)
        if count == 0:
            raise DomainError("prefix is inadmissible; next-edge law "
                              "undefined")
        absent = np.delete(frame, [pool.column(f) for f in edges])
        law = StateLaw.from_weights(support, tuple(sums[absent].tolist()),
                                    count * (M - t))
        if self._weights + len(support) > _TREE_WEIGHTS:
            self._cut()
        node = _PrefixNode(edges, t, frame, cols, law)
        self._nodes[edges] = node
        self._weights += len(support)
        if rows is not None and t + 1 < M:  # only nodes with children
            self._hold(node, rows)
        return node

    def _frame(self, e: Edge) -> np.ndarray:
        """Canonical column of σ_e^{-1}(f) for every pool column f."""
        n, pool = self.params.n, self.family.pool
        # label[v] = σ_e^{-1}(v): e's vertices go to 1..k, the rest follow
        # in increasing order
        label = np.zeros(n + 1, dtype=np.intp)
        label[list(e) + [v for v in range(1, n + 1) if v not in e]] = \
            np.arange(1, n + 1)
        return pool.rank(np.sort(label[pool.vertices], axis=1))

    def _rows(self, node: _PrefixNode) -> np.ndarray | None:
        """Canonical completions of node's state (None: all of them)."""
        if node.rows is not None:
            del self._held[node]
            self._held[node] = None  # now the most recently used
            return node.rows
        rows = None
        for col in node.cols:
            rows = self.family.with_column(col, rows)
        if rows is not None:
            self._hold(node, rows)
        return rows

    def _hold(self, node: _PrefixNode, rows: np.ndarray) -> None:
        node.rows = rows
        self._held[node] = None
        self._held_bytes += rows.nbytes
        while self._held_bytes > _TREE_ROW_BYTES:
            old = next(iter(self._held))
            del self._held[old]
            self._held_bytes -= old.rows.nbytes
            old.rows = None

    def _cut(self) -> None:
        """Drop every node below the root."""
        self.root.children.clear()
        self._nodes.clear()
        self._weights = 0
        for node in self._held:
            node.rows = None
        self._held.clear()
        self._held_bytes = 0


@lru_cache(maxsize=2)
def prefix_tree(params: Params) -> PrefixTree:
    """The `PrefixTree` of (n, k, d), built once per params and kept in a
    bounded least-recently-used cache."""
    return PrefixTree(params)


def exact_next_edge_distribution(G: OrderedHypergraph,
                                 params: Params) -> dict[Edge, Fraction]:
    """Exact law of the next exposed edge given prefix G, as Fractions.

    For each absent edge e, P(e) = U(G+e) / (U(G) * (M-t)) where U counts
    unordered completions; the M-t orderings of each completion tail put
    each tail edge first equally often.  The values sum to 1 exactly.
    """
    fam = extension_family(G, params)
    return fam.state(fam.base).distribution()


@dataclass
class SwitchingClassSizes:
    """Family sizes stratified by a pair statistic.

    `sizes[value]` counts ordered extensions whose statistic equals `value`
    (unordered counts in `unordered_sizes`); `bottom` and `top` bound the
    occupied values.  `is_interval` records whether every level between them
    is occupied; a nonempty prefix can force the bottom above 0.  `values`
    holds each completion's statistic, in the family's listing order.
    """

    kind: str
    u: int
    v: int
    sizes: dict[int, int]
    unordered_sizes: dict[int, int]
    bottom: int
    top: int
    is_interval: bool
    total_ordered: int
    values: tuple[int, ...]


def switching_class_sizes(G: OrderedHypergraph, u: int, v: int, kind: str,
                          params: Params) -> SwitchingClassSizes:
    """Stratify the extension family of G by a pair statistic at (u, v).

    kind "pair_degree" counts completion edges containing both u and v;
    kind "codegree" counts (k-1)-sets W with W+{u} in the full graph H and
    W+{v} in H\\G.
    """
    switching_target(kind, params.n, params.k, pair=(u, v))
    fam = extension_family(G, params)
    orderings = math.factorial(params.M - len(G))
    pool, tails = fam.pool, fam.tails
    has_u = (pool.vertices == u).any(axis=1)
    has_v = (pool.vertices == v).any(axis=1)
    if kind == "pair_degree":
        values = (has_u & has_v)[tails].sum(axis=1)
    else:
        # a tail edge W+{v} counts when its swap W+{u} lies in G or in the
        # same tail; -1 marks edges that have no swap (u in e, or v not)
        swap = np.where(has_v & ~has_u, pool.rank(np.sort(np.where(
            pool.vertices == v, u, pool.vertices), axis=1)), -1)
        in_base = np.zeros(len(pool.edges) + 1, dtype=bool)  # [-1] stays False
        in_base[[pool.column(e) for e in G.edge_set]] = True
        # tails rows are increasing, so row * C + column is sorted overall
        which = np.arange(len(tails))[:, None] * len(pool.edges)
        keys = (which + tails).ravel()
        swapped = swap[tails]
        wanted = which + swapped
        at = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        in_tail = keys[at] == wanted
        values = ((swapped >= 0) & (in_base[swapped] | in_tail)).sum(axis=1)
    values = values.tolist()
    unordered = dict(Counter(values))
    top = max(unordered) if unordered else 0
    bottom = min(unordered) if unordered else 0
    sizes = {val: cnt * orderings for val, cnt in unordered.items()}
    is_interval = bool(unordered) and all(
        val in unordered for val in range(bottom, top + 1))
    return SwitchingClassSizes(
        kind=kind, u=u, v=v, sizes=sizes, unordered_sizes=unordered,
        bottom=bottom, top=top, is_interval=is_interval,
        total_ordered=fam.ordered_count, values=tuple(values),
    )


class _SequentialTailCounter:
    """Count ordered tails of distinct loop-free edges consistent with the
    residual multiset, position by position.  Independent of the focus-vertex
    route on purpose."""

    def __init__(self, n: int, k: int, residual: list[int],
                 forbidden: set[Edge], slots: int, budget: int) -> None:
        self.n = n
        self.k = k
        self.residual = residual
        self.forbidden = forbidden
        self.slots = slots
        self.budget = budget
        self.used: set[Edge] = set()
        self.count = 0
        self.nodes = 0

    def run(self) -> None:
        self._place(self.slots)

    def _place(self, remaining: int) -> None:
        if remaining == 0:
            self.count += 1
            return
        r = self.residual
        support = [v for v in range(1, self.n + 1) if r[v] > 0]
        for e in combinations(support, self.k):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _budget_error(self.budget)
            if e in self.forbidden or e in self.used:
                continue
            for w in e:
                r[w] -= 1
            self.used.add(e)
            self._place(remaining - 1)
            self.used.discard(e)
            for w in e:
                r[w] += 1


def residual_multiset_permutations(G: OrderedHypergraph, params: Params) -> int:
    """Number N_G of distinct arrangements of the residual vertex copies."""
    residual = residual_degrees(G, params).tolist()
    total = math.factorial(sum(residual))
    for r in residual:
        total //= math.factorial(r)
    return total


def exact_simplicity_probability(G: OrderedHypergraph,
                                 params: Params) -> Fraction:
    """Exact probability that a uniform configuration extension of G is simple.

    Counts ordered simple tails T; each contributes (k!)^(M-t) vertex-copy
    permutations, so P = T * (k!)^(M-t) / N_G.  Raises
    InadmissiblePrefixError when the residual multiset does not exist.
    """
    residual = residual_degrees(G, params).tolist()
    t = len(G)
    counter = _SequentialTailCounter(params.n, params.k, residual,
                                     set(G.edge_set), params.M - t,
                                     node_budget())
    counter.run()
    block_orderings = math.factorial(params.k) ** (params.M - t)
    return Fraction(counter.count * block_orderings,
                    residual_multiset_permutations(G, params))


@dataclass
class RatioIdentityReport:
    """Both sides of the extension-ratio identity, exactly.

    extension_ratio = U(G+e)/U(G+f) must equal
    residual_ratio * simplicity_ratio, where residual_ratio multiplies the
    residual degrees of e\\f over those of f\\e and simplicity_ratio is
    P(simple | G+e) / P(simple | G+f).
    """

    e: Edge
    f: Edge
    extension_ratio: Fraction
    residual_ratio: Fraction
    p_simple_e: Fraction | None
    p_simple_f: Fraction | None
    rhs: Fraction
    equal: bool


def verify_ratio_identity(G: OrderedHypergraph, e: Edge, f: Edge,
                          params: Params) -> RatioIdentityReport:
    """Check U(G+e)/U(G+f) == residual ratio times simplicity ratio, exactly.

    Requires f to extend G admissibly (nonzero count); e may be inadmissible,
    in which case both sides are 0.
    """
    e = make_edge(e, params.n, params.k)
    f = make_edge(f, params.n, params.k)
    for name, edge in (("e", e), ("f", f)):
        if edge in G.edge_set:
            raise DomainError(f"edge {name}={edge} already present in G")
    fam = extension_family(G, params)
    u_e = len(fam.rows_with({e}))
    u_f = len(fam.rows_with({f}))
    if u_f == 0:
        raise DomainError("f does not extend G admissibly; ratio undefined")
    residual = residual_degrees(G, params).tolist()
    num = math.prod(residual[w] for w in set(e) - set(f))
    den = math.prod(residual[w] for w in set(f) - set(e))
    residual_ratio = Fraction(num, den)
    extension_ratio = Fraction(u_e, u_f)
    p_f = exact_simplicity_probability(
        OrderedHypergraph(params.n, params.k, list(G.edges) + [f]), params)
    if num == 0:
        # e pushes some vertex past degree d: both sides vanish
        p_e = None
        rhs = Fraction(0)
    else:
        p_e = exact_simplicity_probability(
            OrderedHypergraph(params.n, params.k, list(G.edges) + [e]), params)
        rhs = residual_ratio * p_e / p_f
    return RatioIdentityReport(
        e=e, f=f,
        extension_ratio=extension_ratio,
        residual_ratio=residual_ratio,
        p_simple_e=p_e, p_simple_f=p_f,
        rhs=rhs,
        equal=extension_ratio == rhs,
    )
