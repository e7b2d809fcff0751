"""Overlapping Hamilton cycles: certificates, exhaustive search, d-sweeps.

An ell-overlapping cycle orders all n vertices cyclically and takes every
k-window at stride s = k - ell, so consecutive edges share exactly ell
vertices and the cycle has n/s edges.  Existence requires s | n and
n >= 2k - ell (below that, consecutive windows wrap into each other and
overlap in more than ell vertices).  The finder anchors vertex 1 inside the
first stride block — rotating by multiples of s preserves the window
family, so the residue of vertex 1's position is the only rotation
invariant — and prunes on partial windows; the naive oracle deliberately
scans every permutation with no symmetry reduction, since e.g. at stride 3
a cycle carrying vertex 1 at residue 1 corresponds to no vertex-1-first
ordering at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .core import DomainError, Edge, Hypergraph, OrderedHypergraph, Params
from .oracle import node_budget
from .samplers import RngStream, sample_regular
from .stats import wilson_interval


def cycle_edges(order: tuple[int, ...], k: int, ell: int) -> tuple[Edge, ...]:
    """The n/(k-ell) window edges of the cyclic order, each sorted."""
    n = len(order)
    s = k - ell
    return tuple(
        tuple(sorted(order[(start + j) % n] for j in range(k)))
        for start in range(0, n, s)
    )


def _check_cycle_shape(n: int, k: int, ell: int) -> None:
    """Reject a shape (n, k, ell) that no spanning ell-overlapping cycle
    has: ell outside 1..k-1, a stride k - ell that does not divide n, or
    n < 2k - ell."""
    if not 1 <= ell <= k - 1:
        raise DomainError(f"overlap ell={ell} outside 1..{k - 1}")
    s = k - ell
    if n % s:
        raise DomainError(
            f"no {ell}-overlapping Hamilton cycle can exist: stride "
            f"{s} does not divide n={n}"
        )
    if n < 2 * k - ell:
        raise DomainError(
            f"n={n} < 2k-ell={2 * k - ell}: consecutive windows would "
            "overlap in more than ell vertices"
        )


@dataclass(frozen=True)
class CycleCertificate:
    """A spanning ell-overlapping cycle given by its vertex order.

    Two certificates describe the same cycle iff their canonical keys agree:
    the window family is preserved exactly by rotations at multiples of the
    stride and by reflection, so the key minimizes over that group.
    """

    order: tuple[int, ...]
    k: int
    ell: int

    def __post_init__(self) -> None:
        n = len(self.order)
        _check_cycle_shape(n, self.k, self.ell)
        if sorted(self.order) != list(range(1, n + 1)):
            raise DomainError("order must list each of 1..n exactly once")

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def stride(self) -> int:
        return self.k - self.ell

    def edges(self) -> tuple[Edge, ...]:
        return cycle_edges(self.order, self.k, self.ell)

    def canonical_key(self) -> tuple[int, ...]:
        n, s = self.n, self.stride
        best: tuple[int, ...] | None = None
        for base in (self.order, self.order[::-1]):
            for r in range(0, n, s):
                cand = base[r:] + base[:r]
                if best is None or cand < best:
                    best = cand
        return best

    def equivalent(self, other: "CycleCertificate") -> bool:
        return (self.k, self.ell) == (other.k, other.ell) \
            and self.canonical_key() == other.canonical_key()


def verify_cycle(H: Hypergraph, cert: CycleCertificate) -> bool:
    """True iff every window edge of the certificate is an edge of H.

    The certificate must span H's vertex set and match its uniformity;
    nonconsecutive windows are allowed to intersect (they do whenever
    ell > k/2), only membership is checked.
    """
    if cert.k != H.k:
        raise DomainError(f"certificate is {cert.k}-uniform, graph is {H.k}")
    if cert.n != H.n:
        raise DomainError(f"certificate spans {cert.n} vertices, graph has {H.n}")
    return all(e in H.edge_set for e in cert.edges())


FOUND = "found"
NONE = "none"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchResult:
    status: str
    certificate: CycleCertificate | None
    nodes: int

    @property
    def decided(self) -> bool:
        return self.status != UNKNOWN


class _Budget(Exception):
    pass


class _Searcher:
    """Backtracking order builder with partial-window pruning.

    Every strictly partial window prefix must extend to an edge, which is
    tested against the precomputed family of edge subsets; full windows are
    tested exactly.  Wrap-around windows (those reusing positions from the
    front) are checked once the order is complete.
    """

    def __init__(self, H: Hypergraph, ell: int, budget: int) -> None:
        self.H = H
        self.n = H.n
        self.k = H.k
        self.s = H.k - ell
        self.budget = budget
        self.nodes = 0
        subs: set[frozenset[int]] = set()
        for e in H.edge_set:
            for r in range(self.k + 1):
                for comb in combinations(e, r):
                    subs.add(frozenset(comb))
        self._partials = subs
        self.order = [0] * self.n
        self.used = [False] * (self.n + 1)

    def run(self) -> CycleCertificate | None:
        for anchor in range(self.s):
            self.order[anchor] = 1
            self.used[1] = True
            pos0 = 0 if anchor else 1
            if self._place(pos0, anchor):
                return CycleCertificate(order=tuple(self.order), k=self.k,
                                        ell=self.k - self.s)
            self.used[1] = False
        return None

    def _ok_prefix(self, pos: int) -> bool:
        # every stride-aligned window covering pos: starts in [pos-k+1, pos]
        start = (pos // self.s) * self.s
        while start >= 0 and start >= pos - self.k + 1:
            window = frozenset(self.order[start:pos + 1])
            if len(window) == self.k:
                if tuple(sorted(window)) not in self.H.edge_set:
                    return False
            elif window not in self._partials:
                return False
            start -= self.s
        return True

    def _close_ok(self) -> bool:
        for start in range(0, self.n, self.s):
            if start + self.k > self.n:
                e = tuple(sorted(self.order[(start + j) % self.n]
                                 for j in range(self.k)))
                if e not in self.H.edge_set:
                    return False
        return True

    def _place(self, pos: int, anchor: int) -> bool:
        if pos == self.n:
            return self._close_ok()
        if pos == anchor:
            return self._place(pos + 1, anchor)
        for v in range(2, self.n + 1):
            if self.used[v]:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget
            self.order[pos] = v
            if self._ok_prefix(pos):
                self.used[v] = True
                if self._place(pos + 1, anchor):
                    return True
                self.used[v] = False
        return False


def find_hamilton_cycle(H: Hypergraph, ell: int,
                        budget: int | None = None) -> SearchResult:
    """Exhaustive certificate search; `none` is definitive, `unknown` means
    the node budget ran out first."""
    _check_cycle_shape(H.n, H.k, ell)
    searcher = _Searcher(H, ell, node_budget(budget))
    try:
        cert = searcher.run()
    except _Budget:
        return SearchResult(status=UNKNOWN, certificate=None,
                            nodes=searcher.nodes)
    if cert is None:
        return SearchResult(status=NONE, certificate=None, nodes=searcher.nodes)
    assert verify_cycle(H, cert)
    return SearchResult(status=FOUND, certificate=cert, nodes=searcher.nodes)


def naive_hamiltonian(H: Hypergraph, ell: int) -> bool:
    """Scan all n! vertex orders for a spanning ell-cycle.

    Independent of the backtracking finder (no pruning, no anchoring): at
    stride s only rotations by multiples of s preserve the window family,
    so fixing any vertex's position would skip whole equivalence classes.
    Usable up to n about 8.
    """
    _check_cycle_shape(H.n, H.k, ell)
    for perm in permutations(range(1, H.n + 1)):
        if all(e in H.edge_set for e in cycle_edges(perm, H.k, ell)):
            return True
    return False


@dataclass(frozen=True)
class SweepPoint:
    d: int
    trials: int
    found: int
    none: int
    unknown: int
    p_hat: float
    ci_lo: float
    ci_hi: float


def hamiltonicity_sweep(n: int, k: int, ell: int, d_values: list[int],
                        trials: int, rng: RngStream,
                        budget: int | None = None) -> list[SweepPoint]:
    """Empirical ell-Hamiltonicity of R(n,d) across degrees.

    Per d: sample `trials` regular graphs, trial i from the stream
    rng.child(d, i), and run the finder; p_hat counts found over all trials
    (unknowns reported, not folded into none) with a Wilson 95% interval.
    """
    _check_cycle_shape(n, k, ell)
    if not isinstance(rng, RngStream):
        raise DomainError(f"rng must be an RngStream, got {type(rng).__name__}")
    points = []
    for d in d_values:
        params = Params(n, k, d)
        found = none = unknown = 0
        for stream in RngStream.trials(rng.seed, trials, rng.path + (d,)):
            R = sample_regular(OrderedHypergraph(n, k), params, stream)
            res = find_hamilton_cycle(R.as_hypergraph(), ell, budget)
            if res.status == FOUND:
                found += 1
            elif res.status == NONE:
                none += 1
            else:
                unknown += 1
        lo, hi = wilson_interval(found, trials)
        points.append(SweepPoint(d=d, trials=trials, found=found, none=none,
                                 unknown=unknown, p_hat=found / trials,
                                 ci_lo=lo, ci_hi=hi))
    return points
