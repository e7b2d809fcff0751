"""Switching moves on regular extension families, with exact move counting.

A switching removes k pairwise disjoint edges of H (the rows of a k-by-k
matrix, each row listed in its column order) and inserts the k columns.
Which statistic the move targets fixes the labeling convention:

* remove_edge: row 1 is a designated edge e, every row sorted increasingly;
  the move takes a graph containing e to one avoiding it.
* pair_degree: row 1 is an edge containing both marked vertices u and v;
  sorted rows; the pair degree of (u, v) outside G drops by exactly one.
* codegree: row 1 is an edge e_1 = {v} + W written with v first, where
  W + {u} = e_0 is another edge of H kept fixed (the anchor); rows 2..k are
  sorted along the column order of row 1.  An extra exclusion forbids
  (column_1 - v) + u from being an edge of H.

Forward counts enumerate legal moves out of H; backward counts enumerate,
from a target H', every (source graph, move) pair that lands on H'.  Both
ends of the double-counting identity sum over the same set of moves, so the
totals agree exactly on enumerated families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .core import (
    AnyGraph,
    DomainError,
    Edge,
    Hypergraph,
    OrderedHypergraph,
    Params,
    codegree_rel,
    make_edge,
    residual_degrees,
)
from . import oracle
from .samplers import as_generator, sample_regular
from .stats import wilson_interval

KINDS = ("remove_edge", "pair_degree", "codegree")


class IllegalSwitchError(DomainError):
    """A switching move violates one of its preconditions."""


@dataclass(frozen=True)
class SwitchingMove:
    """A k-by-k switching matrix plus, for codegree moves, the fixed anchor.

    `rows[i]` lists row i's vertices in column order; rows are pairwise
    disjoint edges.  Removed edges are the rows as sets, added edges the
    columns as sets.
    """

    rows: tuple[tuple[int, ...], ...]
    anchor: Edge | None = None

    @property
    def removed(self) -> tuple[Edge, ...]:
        return tuple(tuple(sorted(r)) for r in self.rows)

    @property
    def added(self) -> tuple[Edge, ...]:
        return tuple(tuple(sorted(col)) for col in zip(*self.rows))

    def inverse(self) -> "SwitchingMove":
        """Transpose: removes this move's columns and restores its rows."""
        return SwitchingMove(rows=tuple(zip(*self.rows)), anchor=self.anchor)


def apply_switch(H: AnyGraph, move: SwitchingMove) -> Hypergraph:
    """Apply a switching move, validating every precondition.

    Raises IllegalSwitchError naming the violated clause.  The result has
    the same degree sequence as H.
    """
    k = H.k
    if len(move.rows) != k or any(len(r) != k for r in move.rows):
        raise IllegalSwitchError(f"move matrix must be {k}x{k}")
    seen: set[int] = set()
    for r in move.rows:
        if len(set(r)) != k:
            raise IllegalSwitchError(f"row {r} repeats a vertex")
        if seen & set(r):
            raise IllegalSwitchError("rows are not pairwise disjoint")
        seen |= set(r)
    removed = move.removed
    for e in removed:
        if e not in H.edge_set:
            raise IllegalSwitchError(f"removed edge {e} is not in H")
    added = move.added
    remaining = H.edge_set - set(removed)
    for f in added:
        if f in remaining:
            raise IllegalSwitchError(f"added edge {f} already present in H")
    out = Hypergraph(H.n, H.k)
    out._edges = remaining | set(added)
    return out


def _columns(rows: tuple[tuple[int, ...], ...]) -> tuple[Edge, ...]:
    return tuple(tuple(sorted(col)) for col in zip(*rows))


def _check_pool_args(H: AnyGraph, G: AnyGraph) -> list[Edge]:
    if (H.n, H.k) != (G.n, G.k):
        raise DomainError("H and G disagree on (n, k)")
    if not G.edge_set <= H.edge_set:
        raise DomainError("G must be a subgraph of H")
    return sorted(H.edge_set - G.edge_set)


def _iter_disjoint_sets(pool: list[Edge], count: int, blocked: set[int],
                        start: int = 0) -> Iterator[tuple[Edge, ...]]:
    """Unordered selections of `count` pairwise disjoint pool edges avoiding
    the blocked vertices, in increasing pool index order."""
    if count == 0:
        yield ()
        return
    for i in range(start, len(pool) - count + 1):
        e = pool[i]
        if blocked & set(e):
            continue
        for rest in _iter_disjoint_sets(pool, count - 1, blocked | set(e), i + 1):
            yield (e,) + rest


def iter_forward_moves(H: AnyGraph, G: AnyGraph, kind: str, *,
                       edge: Edge | None = None,
                       pair: tuple[int, int] | None = None) -> Iterator[SwitchingMove]:
    """Yield every legal switching move out of H of the given kind."""
    if kind not in KINDS:
        raise DomainError(f"unknown switching kind {kind!r}")
    pool = _check_pool_args(H, G)
    k = H.k
    h_set = H.edge_set

    if kind == "remove_edge":
        if edge is None:
            raise DomainError("remove_edge switching needs edge=")
        e = tuple(sorted(edge))
        if e not in h_set:
            raise DomainError(f"edge {e} is not in H")
        if e in G.edge_set:
            raise DomainError(f"edge {e} lies in the fixed prefix G")
        rest_pool = [g for g in pool if g != e]
        for others in _iter_disjoint_sets(rest_pool, k - 1, set(e)):
            rows = (e,) + others
            if _forward_legal(rows, h_set):
                yield SwitchingMove(rows=rows)
        return

    if pair is None:
        raise DomainError(f"{kind} switching needs pair=")
    u, v = pair
    if u == v:
        raise DomainError("pair must name two distinct vertices")

    if kind == "pair_degree":
        for e1 in pool:
            if u not in e1 or v not in e1:
                continue
            rest_pool = [g for g in pool if g != e1]
            for others in _iter_disjoint_sets(rest_pool, k - 1, set(e1)):
                rows = (e1,) + others
                if _forward_legal(rows, h_set):
                    yield SwitchingMove(rows=rows)
        return

    # codegree: anchor e_0 = W + {u} stays, e_1 = W + {v} leads the matrix
    pool_set = set(pool)
    for e0 in sorted(h_set):
        if u not in e0 or v in e0:
            continue
        w_part = tuple(sorted(set(e0) - {u}))
        e1 = tuple(sorted(w_part + (v,)))
        if e1 not in pool_set or e1 == e0:
            continue
        row1 = (v,) + w_part
        rest_pool = [g for g in pool if g != e1]
        for others in _iter_disjoint_sets(rest_pool, k - 1, set(e1)):
            rows = (row1,) + others
            if not _forward_legal(rows, h_set):
                continue
            col1 = _columns(rows)[0]
            clash = tuple(sorted(set(col1) - {v} | {u}))
            if len(clash) == k and clash in h_set:
                continue
            yield SwitchingMove(rows=rows, anchor=e0)


def _forward_legal(rows: tuple[tuple[int, ...], ...], h_set: set[Edge]) -> bool:
    removed = {tuple(sorted(r)) for r in rows}
    return all(col not in h_set or col in removed for col in _columns(rows))


def forward_count(H: AnyGraph, G: AnyGraph, kind: str, *,
                  edge: Edge | None = None,
                  pair: tuple[int, int] | None = None) -> int:
    """Number of legal switching moves out of H of the given kind."""
    return sum(1 for _ in iter_forward_moves(H, G, kind, edge=edge, pair=pair))


def _iter_increasing_partitions(
    rems: tuple[frozenset[int], ...],
    row_ok: Callable[[tuple[int, ...]], bool],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of the column leftovers into rows that take one vertex per
    column and increase along the column order.  Each unordered partition is
    produced once: every row starts at the smallest vertex left in column 0."""
    if not rems[0]:
        yield ()
        return
    first = min(rems[0])

    def build(j: int, prev: int, acc: tuple[int, ...]) -> Iterator:
        if j == len(rems):
            if row_ok(acc):
                rest = tuple(col - {acc[i]} for i, col in enumerate(rems))
                for tail in _iter_increasing_partitions(rest, row_ok):
                    yield (acc,) + tail
            return
        for x in sorted(rems[j]):
            if x > prev:
                yield from build(j + 1, x, acc + (x,))

    yield from build(1, first, (first,))


def iter_backward_moves(Hp: AnyGraph, G: AnyGraph, kind: str, *,
                        edge: Edge | None = None,
                        pair: tuple[int, int] | None = None,
                        ) -> Iterator[tuple[Hypergraph, SwitchingMove]]:
    """Yield every (source graph H, move) whose application lands on Hp.

    The count of these pairs is the backward count b(Hp); summed over an
    enumerated family it equals the summed forward counts exactly.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown switching kind {kind!r}")
    pool = _check_pool_args(Hp, G)
    k = Hp.k
    hp_set = Hp.edge_set
    g_set = G.edge_set

    def emit(cols: tuple[Edge, ...], rows: tuple[tuple[int, ...], ...],
             anchor: Edge | None) -> tuple[Hypergraph, SwitchingMove]:
        move = SwitchingMove(rows=rows, anchor=anchor)
        source = Hypergraph(Hp.n, k)
        source._edges = (hp_set - set(cols)) | set(move.removed)
        if __debug__:
            assert apply_switch(source, move).edge_set == hp_set
        return source, move

    if kind == "remove_edge":
        if edge is None:
            raise DomainError("remove_edge switching needs edge=")
        e = tuple(sorted(edge))
        if e in hp_set:
            raise DomainError(f"edge {e} is present in the target graph")
        if e in g_set:
            raise DomainError(f"edge {e} lies in the fixed prefix G")
        candidates = [[g for g in pool if set(g) & set(e) == {w}] for w in e]

        def row_ok(row: tuple[int, ...]) -> bool:
            return row not in hp_set and row not in g_set

        for cols in _iter_column_choices(candidates):
            rems = tuple(frozenset(set(c) - {w}) for c, w in zip(cols, e))
            for partition in _iter_increasing_partitions(rems, row_ok):
                yield emit(cols, (e,) + partition, None)
        return

    if pair is None:
        raise DomainError(f"{kind} switching needs pair=")
    u, v = pair
    if u == v:
        raise DomainError("pair must name two distinct vertices")

    if kind == "pair_degree":
        cu = [g for g in pool if u in g and v not in g]
        cv = [g for g in pool if v in g and u not in g]
        rest = [g for g in pool if u not in g and v not in g]
        for gu in cu:
            for gv in cv:
                if set(gu) & set(gv):
                    continue
                blocked = set(gu) | set(gv)
                for others in _iter_disjoint_sets(rest, k - 2, blocked):
                    yield from _pair_degree_reconstructions(
                        gu, gv, others, u, v, hp_set, g_set, emit)
        return

    # codegree
    for e0 in sorted(hp_set):
        if u not in e0 or v in e0:
            continue
        w_part = tuple(sorted(set(e0) - {u}))
        e1 = tuple(sorted(w_part + (v,)))
        if e1 in hp_set or e1 in g_set:
            continue
        row1 = (v,) + w_part
        candidates = [[g for g in pool if set(g) & set(e1) == {x} and g != e0]
                      for x in row1]

        def row_ok(row: tuple[int, ...]) -> bool:
            return row not in hp_set and row not in g_set

        for cols in _iter_column_choices(candidates):
            rems = tuple(frozenset(set(c) - {x}) for c, x in zip(cols, row1))
            clash = tuple(sorted(set(cols[0]) - {v} | {u}))
            clash_size_ok = len(clash) == k
            for partition in _iter_increasing_partitions(rems, row_ok):
                if clash_size_ok:
                    rows_set = {tuple(sorted(r)) for r in partition}
                    in_source = (clash in hp_set and clash not in cols) \
                        or clash in rows_set or clash == e1
                    if in_source:
                        continue
                yield emit(cols, (row1,) + partition, e0)


def _iter_column_choices(candidates: list[list[Edge]],
                         chosen: tuple[Edge, ...] = (),
                         blocked: set[int] | None = None) -> Iterator[tuple[Edge, ...]]:
    """One candidate edge per column position, pairwise disjoint."""
    if blocked is None:
        blocked = set()
    j = len(chosen)
    if j == len(candidates):
        yield chosen
        return
    for g in candidates[j]:
        gs = set(g)
        if blocked & gs:
            continue
        yield from _iter_column_choices(candidates, chosen + (g,), blocked | gs)


def _pair_degree_reconstructions(gu: Edge, gv: Edge, others: tuple[Edge, ...],
                                 u: int, v: int, hp_set: set[Edge],
                                 g_set: set[Edge], emit) -> Iterator:
    """Rebuild row 1 through (u, v), order the columns by it, then partition
    the leftovers into increasing rows."""
    cols_unordered = [gu, gv] + list(others)
    free_cols = list(others)

    def choose_free(idx: int, picks: tuple[int, ...]) -> Iterator:
        if idx == len(free_cols):
            yield picks
            return
        for x in free_cols[idx]:
            yield from choose_free(idx + 1, picks + (x,))

    for picks in choose_free(0, ()):
        row1_vertices = (u, v) + picks
        row1 = tuple(sorted(row1_vertices))
        if row1 in hp_set or row1 in g_set:
            continue
        carrier = {u: gu, v: gv}
        for x, col in zip(picks, free_cols):
            carrier[x] = col
        ordered_cols = tuple(carrier[x] for x in row1)
        rems = tuple(frozenset(set(c) - {x}) for c, x in zip(ordered_cols, row1))

        def row_ok(row: tuple[int, ...]) -> bool:
            return row not in hp_set and row not in g_set

        for partition in _iter_increasing_partitions(rems, row_ok):
            yield emit(ordered_cols, (row1,) + partition, None)


def backward_count(Hp: AnyGraph, G: AnyGraph, kind: str, *,
                   edge: Edge | None = None,
                   pair: tuple[int, int] | None = None) -> int:
    """Number of (source, move) reconstructions landing on Hp."""
    return sum(1 for _ in iter_backward_moves(Hp, G, kind, edge=edge, pair=pair))


@dataclass
class EdgeProbabilityEstimate:
    """P(e in R) for a uniform regular extension R of G."""

    edge: Edge
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    exact: Fraction | None
    # p_hat expressed in units of tau * d / n^(k-1), the natural scale
    scale_ratio: float


def edge_probability(G: OrderedHypergraph, e: Edge, params: Params, trials: int,
                     rng, exact: str = "auto",
                     exact_budget: int = 2_000_000) -> EdgeProbabilityEstimate:
    """Estimate the chance that edge e appears in a uniform regular extension
    of G; attaches the exact completion-count ratio when countable."""
    e = make_edge(e, params.n, params.k)
    if e in G.edge_set:
        raise DomainError(f"edge {e} already lies in G")
    if trials < 1:
        raise DomainError("trials must be positive")
    oracle.check_exact_mode(exact)
    gen = as_generator(rng)
    successes = 0
    for _ in range(trials):
        h = sample_regular(G, params, gen)
        if e in h.edge_set:
            successes += 1
    p_hat = successes / trials
    low, high = wilson_interval(successes, trials)
    value: Fraction | None = None
    if exact != "never":
        try:
            fam = oracle.extension_family(G, params, exact_budget)
            if fam.unordered_count == 0:
                raise DomainError("G is inadmissible")
            value = Fraction(len(fam.rows_with({e})), fam.unordered_count)
        except oracle.OracleBudgetError:
            if exact == "require":
                raise
    tau = 1.0 - len(G) / params.M
    scale = tau * params.d / params.n ** (params.k - 1)
    return EdgeProbabilityEstimate(
        edge=e, trials=trials, successes=successes, p_hat=p_hat,
        ci_low=low, ci_high=high, exact=value,
        scale_ratio=p_hat / scale if scale > 0 else math.nan,
    )


@dataclass
class TailEstimate:
    """Tail of a pair statistic over regular extensions of G.

    `distribution[s]` is P(statistic == s); `tail[s]` is P(statistic >= s).
    The threshold is c * tau * d / n for pair degrees and
    c * tau * d^2 / n^(k-1) for codegrees.  `degree_hypothesis_ok` records
    whether every residual degree of G was at most 2 * tau * d, the
    assumption under which the thresholds are meaningful; instances are
    reported either way.
    """

    kind: str
    u: int
    v: int
    base_size: int
    tau: float
    threshold: float
    exact: bool
    trials: int
    distribution: dict[int, float]
    tail: dict[int, float]
    top: int
    degree_hypothesis_ok: bool
    class_sizes: dict[int, int] | None


def tail_profile(G: OrderedHypergraph, u: int, v: int, kind: str, params: Params,
                 rng=None, trials: int = 0, c: float = 1.0,
                 exact: str = "auto",
                 exact_budget: int = 2_000_000) -> TailEstimate:
    """Distribution of a pair statistic over uniform regular extensions of G,
    exactly via enumeration when feasible, otherwise by sampling."""
    if kind not in ("pair_degree", "codegree"):
        raise DomainError(f"unknown statistic kind {kind!r}")
    oracle.check_pair(u, v, params.n)
    oracle.check_exact_mode(exact)
    residual = residual_degrees(G, params)
    tau = 1.0 - len(G) / params.M
    if kind == "pair_degree":
        threshold = c * tau * params.d / params.n
    else:
        threshold = c * tau * params.d ** 2 / params.n ** (params.k - 1)
    hypothesis_ok = bool(residual.max() <= 2 * tau * params.d)

    sizes: dict[int, int] | None = None
    dist: dict[int, float] = {}
    used_trials = 0
    if exact != "never":
        try:
            classes = oracle.switching_class_sizes(G, u, v, kind, params,
                                                   budget=exact_budget)
            sizes = classes.sizes
            total = classes.total_ordered
            dist = {s: cnt / total for s, cnt in sorted(sizes.items())}
        except oracle.OracleBudgetError:
            if exact == "require":
                raise
    if sizes is None:
        if trials < 1 or rng is None:
            raise DomainError("sampling route needs trials >= 1 and an rng")
        gen = as_generator(rng)
        counts: dict[int, int] = {}
        base_hyper = G.as_hypergraph()
        for _ in range(trials):
            h = sample_regular(G, params, gen).as_hypergraph()
            if kind == "pair_degree":
                s = sum(1 for e in h.edge_set - base_hyper.edge_set
                        if u in e and v in e)
            else:
                s = codegree_rel(h, base_hyper, u, v)
            counts[s] = counts.get(s, 0) + 1
        used_trials = trials
        dist = {s: cnt / trials for s, cnt in sorted(counts.items())}

    top = max(dist) if dist else 0
    tail: dict[int, float] = {}
    acc = 0.0
    for s in range(top, -1, -1):
        acc += dist.get(s, 0.0)
        tail[s] = min(acc, 1.0)
    return TailEstimate(
        kind=kind, u=u, v=v, base_size=len(G), tau=tau, threshold=threshold,
        exact=sizes is not None, trials=used_trials,
        distribution=dist, tail=dict(sorted(tail.items())), top=top,
        degree_hypothesis_ok=hypothesis_ok, class_sizes=sizes,
    )
