"""Canonical k-uniform hypergraph types and degree machinery.

Vertices are the integers 1..n.  An edge is a strictly increasing k-tuple, so
tuple equality is set equality and lexicographic tuple order is the canonical
edge order used everywhere.  A multi-edge (configuration-model block) is a
non-decreasing k-tuple that may repeat vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, ...]
MultiEdge = tuple[int, ...]


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class InadmissiblePrefixError(DomainError):
    """A prefix graph already exceeds the target degree at some vertex."""


@dataclass(frozen=True)
class Params:
    """Instance descriptor for d-regular k-graphs on n vertices.

    Requires k >= 2, n >= k, d >= 1 and k | n*d, so the edge count
    M = n*d/k is an integer.  Values of d above comb(n-1, k-1) are legal
    to construct but describe empty regular families.
    """

    n: int
    k: int
    d: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise DomainError(f"k must be at least 2, got k={self.k}")
        if self.n < self.k:
            raise DomainError(f"need n >= k, got n={self.n}, k={self.k}")
        if self.d < 1:
            raise DomainError(f"d must be positive, got d={self.d}")
        if (self.n * self.d) % self.k:
            raise DomainError(
                f"k={self.k} must divide n*d={self.n * self.d} for regularity"
            )

    @property
    def M(self) -> int:
        """Edge count n*d/k of any d-regular k-graph on n vertices."""
        return self.n * self.d // self.k

    @property
    def max_degree(self) -> int:
        """Degree comb(n-1, k-1) of a vertex of the complete k-graph."""
        return math.comb(self.n - 1, self.k - 1)

    @property
    def complete_count(self) -> int:
        """Number comb(n, k) of possible edges."""
        return math.comb(self.n, self.k)


def make_edge(vertices: Iterable[int], n: int | None = None,
              k: int | None = None) -> Edge:
    """Canonicalize vertices into a sorted edge tuple, validating shape."""
    e = tuple(sorted(vertices))
    if len(set(e)) != len(e):
        raise DomainError(f"edge has a repeated vertex: {e}")
    if k is not None and len(e) != k:
        raise DomainError(f"edge {e} has size {len(e)}, expected k={k}")
    if e and e[0] < 1:
        raise DomainError(f"vertices must be >= 1, got {e}")
    if n is not None and e and e[-1] > n:
        raise DomainError(f"edge {e} leaves the vertex range 1..{n}")
    return e


class EdgePool:
    """The comb(n, k) possible edges on 1..n in lexicographic order: the one
    numbering of edges that every module reads, edge c of `edges` being pool
    column c.  Get one through `edge_pool`.

    `vertices` (C, k) holds each edge's vertices, increasing; `masks`
    (C, W) uint64 each edge's vertex set, vertex x at bit x & 63 of word
    x >> 6, so no bound on n is assumed.  Both are read-only.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n, self.k = n, k
        self.edges: tuple[Edge, ...] = tuple(combinations(range(1, n + 1), k))
        self._index = {e: c for c, e in enumerate(self.edges)}
        self.vertices = np.array(self.edges, dtype=np.intp).reshape(
            len(self.edges), k)
        x = np.arange(n + 1)
        bits = np.zeros((n + 1, (n + 64) // 64), dtype=np.uint64)
        bits[x, x >> 6] = np.left_shift(np.uint64(1), (x & 63).astype(np.uint64))
        self.masks = np.bitwise_or.reduce(bits[self.vertices], axis=1)
        self.vertices.flags.writeable = self.masks.flags.writeable = False
        # _weights[i, x] = comb(n - x, k - i): the pool edges that agree
        # with an edge before its i-th vertex x and pass x there
        self._weights = np.array([[math.comb(n - y, k - i) for y in x]
                                  for i in range(k)], dtype=np.int64)

    def column(self, e: Edge) -> int:
        """Pool column of edge e, which must be an increasing k-tuple of
        vertices 1..n."""
        try:
            return self._index[e]
        except KeyError:
            raise DomainError(f"{e} is not an edge of the pool: {self.k} "
                              f"increasing vertices of 1..{self.n}") from None

    def rank(self, edges: np.ndarray) -> np.ndarray:
        """Pool column of each increasing k-tuple of 1..n along the last
        axis of `edges` (unchecked): C - 1 less the pool edges after it."""
        return (len(self.edges) - 1
                - self._weights[np.arange(self.k), edges].sum(axis=-1))


# the oracles and the switching kernels work at one or two sizes at a time
@lru_cache(maxsize=4)
def edge_pool(n: int, k: int) -> EdgePool:
    """The `EdgePool` of (n, k), built once per size and kept in a bounded
    least-recently-used cache; n >= k >= 2, as for every graph."""
    if k < 2 or n < k:
        raise DomainError(f"need n >= k >= 2, got n={n}, k={k}")
    return EdgePool(n, k)


class Hypergraph:
    """A simple k-graph: a set of k-element edges on vertex set 1..n.

    Treat instances as immutable once shared; mutation helpers exist for
    code that exclusively owns the object while building it.
    """

    __slots__ = ("n", "k", "_edges")

    def __init__(self, n: int, k: int, edges: Iterable[Sequence[int]] = ()) -> None:
        if k < 2 or n < k:
            raise DomainError(f"need n >= k >= 2, got n={n}, k={k}")
        self.n = n
        self.k = k
        self._edges: set[Edge] = set()
        for e in edges:
            self.add_edge(e)

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, edge_pool(n, k).edges)

    @property
    def edge_set(self) -> set[Edge]:
        return self._edges

    def add_edge(self, e: Sequence[int]) -> None:
        self._edges.add(make_edge(e, n=self.n, k=self.k))

    def discard_edge(self, e: Sequence[int]) -> None:
        self._edges.discard(tuple(sorted(e)))

    def copy(self) -> "Hypergraph":
        g = Hypergraph(self.n, self.k)
        g._edges = set(self._edges)
        return g

    def __contains__(self, e: Sequence[int]) -> bool:
        return tuple(sorted(e)) in self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[Edge]:
        # sorted so that iteration order never leaks set-layout nondeterminism
        return iter(sorted(self._edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.k, self._edges) == (other.n, other.k, other._edges)

    def __hash__(self) -> int:
        return hash((self.n, self.k, frozenset(self._edges)))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, m={len(self._edges)})"

    def degree(self, v: int) -> int:
        return sum(1 for e in self._edges if v in e)

    def pair_degree(self, u: int, v: int) -> int:
        """Number of edges containing both u and v (symmetric)."""
        if u == v:
            raise DomainError("pair degree needs two distinct vertices")
        return sum(1 for e in self._edges if u in e and v in e)


class OrderedHypergraph:
    """A simple k-graph whose edge order is significant.

    Prefixes of the order are process states; `prefix(t)` returns the state
    after t edges.  Same ownership convention as Hypergraph.
    """

    __slots__ = ("n", "k", "_seq", "_set")

    def __init__(self, n: int, k: int, edges: Iterable[Sequence[int]] = ()) -> None:
        if k < 2 or n < k:
            raise DomainError(f"need n >= k >= 2, got n={n}, k={k}")
        self.n = n
        self.k = k
        self._seq: list[Edge] = []
        self._set: set[Edge] = set()
        for e in edges:
            self.append(e)

    @classmethod
    def _from_canonical(cls, n: int, k: int,
                        edges: Iterable[Edge]) -> "OrderedHypergraph":
        """Build from edges the package already knows are sorted k-tuples
        in 1..n, skipping `make_edge`; only distinctness is checked."""
        g = cls.__new__(cls)
        g.n = n
        g.k = k
        g._seq = list(edges)
        g._set = set(g._seq)
        if len(g._set) != len(g._seq):
            raise DomainError("duplicate edge in a canonical edge sequence")
        return g

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._seq)

    @property
    def edge_set(self) -> set[Edge]:
        return self._set

    def append(self, e: Sequence[int]) -> None:
        edge = make_edge(e, n=self.n, k=self.k)
        if edge in self._set:
            raise DomainError(f"duplicate edge {edge}")
        self._seq.append(edge)
        self._set.add(edge)

    def prefix(self, t: int) -> "OrderedHypergraph":
        if not 0 <= t <= len(self._seq):
            raise DomainError(f"prefix length {t} out of range 0..{len(self._seq)}")
        return OrderedHypergraph._from_canonical(self.n, self.k, self._seq[:t])

    def copy(self) -> "OrderedHypergraph":
        return OrderedHypergraph._from_canonical(self.n, self.k, self._seq)

    def as_hypergraph(self) -> Hypergraph:
        g = Hypergraph(self.n, self.k)
        g._edges = set(self._set)  # already validated by append
        return g

    def __contains__(self, e: Sequence[int]) -> bool:
        return tuple(sorted(e)) in self._set

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, i: int) -> Edge:
        return self._seq[i]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedHypergraph):
            return NotImplemented
        return (self.n, self.k, self._seq) == (other.n, other.k, other._seq)

    def __hash__(self) -> int:
        return hash((self.n, self.k, tuple(self._seq)))

    def __repr__(self) -> str:
        return f"OrderedHypergraph(n={self.n}, k={self.k}, t={len(self._seq)})"

    def degree(self, v: int) -> int:
        return sum(1 for e in self._seq if v in e)


AnyGraph = Hypergraph | OrderedHypergraph


def codegree_rel(H: AnyGraph, G: AnyGraph, u: int, v: int) -> int:
    """Count (k-1)-sets W with W+{u} an edge of H and W+{v} an edge of H\\G.

    Asymmetric in (u, v); W contains neither u nor v.  Requires G's edges to
    be a subset of H's.
    """
    if u == v:
        raise DomainError("codegree needs two distinct vertices")
    if not G.edge_set <= H.edge_set:
        raise DomainError("codegree_rel requires G to be a subgraph of H")
    count = 0
    for e in H.edge_set:
        if u not in e or v in e:
            continue
        w_plus_v = tuple(sorted(set(e) - {u} | {v}))
        if w_plus_v in H.edge_set and w_plus_v not in G.edge_set:
            count += 1
    return count


def residual_degrees(G: AnyGraph, params: Params) -> np.ndarray:
    """Residual degrees X(v) = d - deg_G(v) of prefix G toward a d-regular
    k-graph, as an int64 array indexed by vertex (index 0 holds 0); they
    sum to k*(M - t).

    Raises DomainError when G and params disagree on (n, k) or G has more
    than M edges, and InadmissiblePrefixError naming the first vertex whose
    degree already exceeds d.
    """
    if G.n != params.n or G.k != params.k:
        raise DomainError("graph and params disagree on (n, k)")
    t = len(G)
    if t > params.M:
        raise DomainError(f"prefix has {t} edges, more than M={params.M}")
    copies = np.fromiter(chain.from_iterable(G.edge_set), dtype=np.int64,
                         count=t * params.k)
    residual = params.d - np.bincount(copies, minlength=params.n + 1)
    residual[0] = 0
    if residual.min() < 0:
        v = int(np.argmax(residual < 0))
        raise InadmissiblePrefixError(
            f"vertex {v} has degree {params.d - residual[v]} > d={params.d}")
    return residual


def complement_edges(G: AnyGraph) -> Iterator[Edge]:
    """Possible edges absent from G, in lexicographic order."""
    present = G.edge_set
    for e in edge_pool(G.n, G.k).edges:
        if e not in present:
            yield e


def is_simple(edges: Iterable[Sequence[int]]) -> bool:
    """True iff no block repeats a vertex and no two blocks are equal as sets."""
    seen: set[Edge] = set()
    for block in edges:
        key = tuple(sorted(block))
        if len(set(key)) != len(key):
            return False
        if key in seen:
            return False
        seen.add(key)
    return True


def format_edge_list(G: AnyGraph, d: int | None = None) -> str:
    """Serialize a graph as a header line plus one sorted edge per line.

    Ordered graphs serialize in their edge order; unordered ones in
    lexicographic order.
    """
    header = f"# n={G.n} k={G.k}" + (f" d={d}" if d is not None else "")
    lines = [header]
    edges = G.edges if isinstance(G, OrderedHypergraph) else sorted(G.edge_set)
    for e in edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> tuple[OrderedHypergraph, int | None]:
    """Inverse of format_edge_list; returns the graph and the optional d."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise DomainError("edge list must start with a '# n=.. k=..' header")
    fields = dict(
        part.split("=", 1) for part in lines[0].lstrip("#").split() if "=" in part
    )
    try:
        n = int(fields["n"])
        k = int(fields["k"])
    except (KeyError, ValueError) as exc:
        raise DomainError(f"bad edge list header: {lines[0]!r}") from exc
    d = int(fields["d"]) if "d" in fields else None
    g = OrderedHypergraph(n, k)
    for ln in lines[1:]:
        vertices = [int(tok) for tok in ln.split()]
        if vertices != sorted(vertices):
            raise DomainError(f"edge line not sorted: {ln!r}")
        g.append(vertices)
    return g, d
