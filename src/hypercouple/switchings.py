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

The forward count of H is the number of legal moves out of H; the backward
count of a target H' is the number of (source graph, move) pairs that land
on H'.  One vectorised kernel per direction counts them (`forward_counts`,
`backward_counts`, totalled by `forward_count` and `backward_count`) for a
single graph, a sequence of graphs or a whole class at once, given as a
listed `ExtensionFamily` restricted to the class's rows.  Members have
equally many pool edges (edges outside G), so a kernel grows partial moves
one pool position per numpy step and reads, per chunk of members, which
positions share no vertex and, backward, each position's code for each
candidate row 1: the index of the one row-1 vertex it meets, else -1.
A row 1 with a vertex that no position meets alone is dropped before the
walk.  The iterators `iter_forward_moves` and `iter_backward_moves` list
the moves one at a time, each from one loop over the (row 1, anchor) pairs
it lists itself; they are the kernels' independent second opinion, and the
tests hold the two to equal counts member by member.  Only the argument
check is shared: every entry point resolves its request through
`oracle.switching_target` (kind, edge, pair) and remove_edge's presence
rule `oracle.check_edge_presence`, so both give the same error on bad
input.  Both ends of the double-counting identity sum over the same set of
moves, so the totals agree exactly on enumerated families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    AnyGraph,
    DomainError,
    Edge,
    EdgePool,
    Hypergraph,
    OrderedHypergraph,
    edge_pool,
)
from . import oracle


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


def _iter_row_ones(kind: str, target: tuple[int, ...], n: int,
                   k: int) -> Iterator[tuple[tuple[int, ...], Edge | None]]:
    """Every (row 1 in its column order, anchor) a move of this kind and
    target may start from, listed from the vertex set alone."""
    if kind == "remove_edge":
        yield target, None
        return
    u, v = target
    rest = [x for x in range(1, n + 1) if x not in target]
    if kind == "pair_degree":
        for w in combinations(rest, k - 2):
            yield tuple(sorted(w + target)), None
        return
    for w in combinations(rest, k - 1):
        yield (v,) + w, tuple(sorted(w + (u,)))


def _barred(move: SwitchingMove, u: int, source: set[Edge]) -> bool:
    """Codegree's extra exclusion: (column 1 - v) + u is an edge of the
    source graph (never when u lies in column 1: then it has k - 1 vertices)."""
    v = move.rows[0][0]
    return tuple(sorted(set(move.added[0]) - {v} | {u})) in source


def iter_forward_moves(H: AnyGraph, G: AnyGraph, kind: str, *,
                       edge: Edge | None = None,
                       pair: tuple[int, int] | None = None) -> Iterator[SwitchingMove]:
    """Yield every legal switching move out of H of the given kind."""
    target = oracle.switching_target(kind, H.n, H.k, edge=edge, pair=pair)
    pool = _check_pool_args(H, G)
    h_set = H.edge_set
    if kind == "remove_edge":
        oracle.check_edge_presence(target, True, target in G.edge_set,
                                   [target in h_set])
    pool_set = set(pool)
    for row1, anchor in _iter_row_ones(kind, target, H.n, H.k):
        e1 = tuple(sorted(row1))
        if e1 not in pool_set or (anchor is not None and anchor not in h_set):
            continue
        rest_pool = [g for g in pool if g != e1]
        for others in _iter_disjoint_sets(rest_pool, H.k - 1, set(e1)):
            move = SwitchingMove(rows=(row1,) + others, anchor=anchor)
            # a column meets every row once, so it is never a removed row
            if h_set.isdisjoint(move.added) and (
                    anchor is None or not _barred(move, target[0], h_set)):
                yield move


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
    target = oracle.switching_target(kind, Hp.n, Hp.k, edge=edge, pair=pair)
    pool = _check_pool_args(Hp, G)
    hp_set = Hp.edge_set
    if kind == "remove_edge":
        oracle.check_edge_presence(target, False, target in G.edge_set,
                                   [target in hp_set])

    def row_ok(row: tuple[int, ...]) -> bool:  # rows 2..k are increasing
        return row not in hp_set

    # column j is a pool edge meeting row 1 at its j-th vertex alone; the
    # anchor stays in both graphs, so it is no column
    for row1, anchor in _iter_row_ones(kind, target, Hp.n, Hp.k):
        if not row_ok(tuple(sorted(row1))) or (
                anchor is not None and anchor not in hp_set):
            continue
        candidates = [[g for g in pool if set(g) & set(row1) == {x}
                       and g != anchor] for x in row1]
        for cols in _iter_column_choices(candidates):
            rems = tuple(frozenset(set(c) - {x}) for c, x in zip(cols, row1))
            for partition in _iter_increasing_partitions(rems, row_ok):
                move = SwitchingMove(rows=(row1,) + partition, anchor=anchor)
                source = Hypergraph(Hp.n, Hp.k)
                source._edges = (hp_set - set(move.added)) | set(move.removed)
                if __debug__:
                    assert apply_switch(source, move).edge_set == hp_set
                if anchor is None or not _barred(move, target[0],
                                                 source.edge_set):
                    yield source, move


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


# ------------------------------------------------------------ class counts --

# a single graph, a sequence of graphs with equally many edges, or a listed
# family (each completion together with the family's base), counted against
# that base only
Members = AnyGraph | Sequence[AnyGraph] | oracle.ExtensionFamily

# members times their cells (a row of `present`, L·m codes, m·m·W mask words)
# or partial moves times their widest temporary, per step: a few MB at most
_CELLS = 1 << 18


class _Leads(NamedTuple):
    """The edges that may stand as row 1 of a move of one kind and target."""

    rows: np.ndarray     # (L, k): row 1's vertices in column order
    ranks: np.ndarray    # (L,): pool index of row 1 as an edge
    anchors: np.ndarray  # (L,): pool index of the kept anchor e_0, or -1
    slots: np.ndarray    # (C,): lead index of each pool edge, or -1
    clash: int           # codegree's u, else 0: (column 1 - v) + u is barred


@lru_cache(maxsize=16)
def _leads(n: int, k: int, kind: str, target: tuple[int, ...]) -> _Leads:
    table = edge_pool(n, k)
    anchors: list[Edge] = []
    clash = 0
    if kind == "remove_edge":
        rows = [target]
    elif kind == "pair_degree":
        u, v = target
        rows = [e for e in table.edges if u in e and v in e]
    else:
        u, v = target
        rest = [x for x in range(1, n + 1) if x not in target]
        ws = list(combinations(rest, k - 1))
        rows = [(v,) + w for w in ws]
        anchors = [tuple(sorted(w + (u,))) for w in ws]
        clash = u
    rows = np.array(rows, dtype=np.intp).reshape(-1, k)
    ranks = table.rank(np.sort(rows, axis=1))
    anchor_ranks = (table.rank(np.array(anchors, dtype=np.intp)) if anchors
                    else np.full(len(rows), -1))
    slots = np.full(len(table.vertices), -1)
    slots[ranks] = np.arange(len(rows))
    return _Leads(rows, ranks, anchor_ranks, slots, clash)


class _Front(NamedTuple):
    """Partial moves, one per row; `_walk` looks up what they cover by `pos`."""

    member: np.ndarray  # (S,): member of the chunk
    lead: np.ndarray    # (S,): row of the lead table standing as row 1
    pos: np.ndarray     # (S, j): pool positions chosen so far


def _pool_rows(H: Members,
               G: AnyGraph) -> tuple[EdgePool, np.ndarray, np.ndarray]:
    """The edge pool, each member's pool (its edges outside G) as an
    increasing row of pool indices, and G's pool indices."""
    n, k = G.n, G.k
    table = edge_pool(n, k)
    fixed = table.rank(np.array(sorted(G.edge_set), dtype=np.intp
                                ).reshape(-1, k))
    if isinstance(H, oracle.ExtensionFamily):
        if (H.params.n, H.params.k) != (n, k):
            raise DomainError("H and G disagree on (n, k)")
        if H.base != G.edge_set:
            raise DomainError("a listed family is counted against its own "
                              "base only: G must be the family's base")
        return table, H.tails, fixed  # the tails are the pools already
    graphs = [H] if isinstance(H, (Hypergraph, OrderedHypergraph)) else list(H)
    if any((g.n, g.k) != (n, k) for g in graphs):
        raise DomainError("H and G disagree on (n, k)")
    sizes = {len(g) for g in graphs}
    if len(sizes) > 1:
        raise DomainError(f"members have different edge counts {sorted(sizes)}")
    edges = np.array([sorted(g.edge_set) for g in graphs], dtype=np.intp)
    members = table.rank(edges.reshape(len(graphs), max(sizes, default=0), k))
    inside = np.isin(members, fixed)
    if (inside.sum(axis=1) != len(fixed)).any():
        raise DomainError("G must be a subgraph of H")
    pool = members[~inside].reshape(len(members),
                                    members.shape[1] - len(fixed))
    return table, np.sort(pool, axis=1), fixed


def _walk(front: _Front, steps, finish, counts: np.ndarray,
          table: EdgePool, pool: np.ndarray, width: int) -> None:
    """Grow every partial move through `steps`, then add `finish`'s number of
    completed moves per partial move to its member's count.

    A step adds one pool edge: any position the step allows that the chunk's
    disjointness table (row i·m + p: the positions of member i sharing no
    vertex with its position p) marks apart from every position chosen so
    far.  The walk is depth first over blocks of _CELLS // width moves.
    """
    if not len(front.member):  # nothing to grow: skip the table
        return
    c, m = pool.shape
    masks = table.masks[pool]                                  # (c, m, W)
    apart = ~(masks[:, :, None] & masks[:, None]).any(axis=3).reshape(c * m, m)
    block = max(1, _CELLS // width)
    stack = [(front, 0)]
    while stack:
        front, j = stack.pop()
        if len(front.member) > block:
            stack.extend((_Front(*(a[lo:lo + block] for a in front)), j)
                         for lo in range(0, len(front.member), block))
        elif j < len(steps):
            ok = steps[j](front)
            for p in front.member * m + front.pos.T:
                ok = ok & np.take(apart, p, axis=0)
            s, q = np.divmod(np.flatnonzero(ok), m)
            stack.append((_Front(front.member[s], front.lead[s],
                                 np.column_stack([front.pos[s], q])), j + 1))
        else:
            counts += np.bincount(front.member, weights=finish(front),
                                  minlength=len(counts)).astype(np.int64)


def _clashes(table: EdgePool, present: np.ndarray, member: np.ndarray,
             rest: np.ndarray, u: int) -> np.ndarray:
    """Codegree's extra exclusion: is rest + u, when it is a k-set, an edge
    of the member?  `rest` holds column 1 without v."""
    free = (rest != u).all(axis=1)
    clash = np.sort(np.column_stack([rest, np.full(len(rest), u)]), axis=1)
    return free & present[member, np.where(free, table.rank(clash), 0)]


def _forward_block(table: EdgePool, leads: _Leads, pool: np.ndarray,
                   present: np.ndarray, counts: np.ndarray) -> None:
    """Forward moves out of each member of a chunk.

    Row 1 is a lead edge of the member's pool (first in `pos`) whose anchor,
    if any, is in the member; rows 2..k are pool edges in increasing pool
    order, pairwise disjoint and disjoint from row 1; no column may be an
    edge of the member (a column meets every row once, so it is not a row).
    """
    c, m = pool.shape
    lead = leads.slots[pool]                                   # (c, m)
    anchor = leads.anchors[lead]
    ok = (lead >= 0) & ((anchor < 0) | present[np.arange(c)[:, None], anchor])
    member, first = np.nonzero(ok)
    front = _Front(member, lead[member, first], first[:, None])

    def later(front):  # rows 2..k in increasing pool order
        return np.arange(m) > front.pos[:, 1:].max(axis=1, initial=-1)[:, None]

    def finish(front):
        rows = table.vertices[pool[front.member[:, None], front.pos]]
        rows[:, 0] = leads.rows[front.lead]      # row 1 in its column order
        cols = np.sort(rows.transpose(0, 2, 1), axis=2)
        legal = ~present[front.member[:, None], table.rank(cols)].any(axis=1)
        if leads.clash:
            legal &= ~_clashes(table, present, front.member, rows[:, 1:, 0],
                               leads.clash)
        return legal

    k = leads.rows.shape[1]
    _walk(front, [later] * (k - 1), finish, counts, table, pool, k * (m + k))


def _backward_leads(table: EdgePool, leads: _Leads, pool: np.ndarray,
                    present: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (member, lead) pairs a backward walk starts from, and the chunk's
    codes: (L·c, m) int8, row l·c + i giving each pool position of member i
    the j at which it meets lead l's row 1 alone, else -1 (also for l's
    anchor).  A pair is kept when row 1 is absent, its anchor (if any)
    present and every row-1 vertex met alone: else no column could stand."""
    seen = np.zeros(len(table.vertices), dtype=bool)
    seen[pool] = True
    edges = np.flatnonzero(seen)               # the chunk's E distinct edges
    local = np.cumsum(seen)[pool] - 1                          # (c, m)
    has = (table.vertices[edges][:, :, None, None] == leads.rows).any(axis=1)
    alone = (has.sum(axis=2) == 1) & (edges[:, None] != leads.anchors)
    bit = (has & alone[:, :, None]) @ (1 << np.arange(has.shape[2]))  # (E, L)
    met = np.bitwise_or.reduce(np.take(bit, local.T, axis=0), axis=0)
    anchors = leads.anchors
    ok = ~present[:, leads.ranks] & ((anchors < 0) | present[:, anchors])
    code = np.where(alone, has.argmax(axis=2), -1).astype(np.int8).T
    rows = np.take(code, local, axis=1)                        # (L, c, m)
    return (*np.nonzero(ok & (met == (1 << has.shape[2]) - 1)),
            rows.reshape(len(code) * len(pool), pool.shape[1]))


def _backward_block(table: EdgePool, leads: _Leads, pool: np.ndarray,
                    present: np.ndarray, counts: np.ndarray) -> None:
    """(source, move) pairs landing on each member of a chunk.

    Row 1 and the member are a pair `_backward_leads` keeps; column j is a
    pool edge of code j for row 1; columns are pairwise disjoint.  Every
    split of the column leftovers into rows 2..k that increase along the
    columns and are absent from the member then completes one pair.
    """
    c, m = pool.shape
    k = leads.rows.shape[1]
    member, lead, code = _backward_leads(table, leads, pool, present)
    front = _Front(member, lead, np.empty((len(member), 0), dtype=np.intp))
    # the (k-1)! orders in which a column hands its leftovers to rows 2..k
    orders = np.array(list(permutations(range(k - 1))), dtype=np.intp)

    def column(j):
        return lambda front: np.take(code, front.lead * c + front.member,
                                     axis=0) == j

    def finish(front):
        cols = table.vertices[pool[front.member[:, None], front.pos]]
        row1 = leads.rows[front.lead]
        left = cols[cols != row1[:, :, None]].reshape(len(cols), k, k - 1)
        # the (k-1)!^(k-1) splits of the leftovers into rows 2..k, one
        # column at a time: row r starts at column 1's r-th leftover, and a
        # column's order survives only if every row still increases
        which = np.arange(len(left))
        rows = left[:, 0, :, None]
        for j in range(1, k):
            cand = left[which, j][:, orders]                 # (S, (k-1)!, k-1)
            s, q = np.nonzero((cand > rows[:, None, :, -1]).all(axis=2))
            which = which[s]
            rows = np.concatenate([rows[s], cand[s, q][:, :, None]], axis=2)
        fresh = ~present[front.member[which, None], table.rank(rows)].any(axis=1)
        found = np.bincount(which[fresh], minlength=len(left))
        if leads.clash:
            found[_clashes(table, present, front.member, left[:, 0],
                           leads.clash)] = 0
        return found

    _walk(front, [column(j) for j in range(k)], finish, counts, table, pool,
          max(k * m, len(orders) * k * k))


def _counts(H: Members, G: AnyGraph, kind: str, edge: Edge | None,
            pair: tuple[int, int] | None, kernel) -> np.ndarray:
    """Validate the arguments, then run `kernel` over chunks of members."""
    target = oracle.switching_target(kind, G.n, G.k, edge=edge, pair=pair)
    table, pool, fixed = _pool_rows(H, G)
    if kind == "remove_edge":
        e = table.rank(np.array(target))
        oracle.check_edge_presence(target, kernel is _forward_block,
                                   e in fixed, (pool == e).any(axis=1))
    leads = _leads(G.n, G.k, kind, target)
    counts = np.zeros(len(pool), dtype=np.int64)
    if not len(leads.ranks):  # no edge can stand as row 1 (codegree, n = k)
        return counts
    size, (m, w) = len(table.vertices), (pool.shape[1], table.masks.shape[1])
    step = max(1, _CELLS // (size + m * (len(leads.ranks) + m * w)))
    # a listed family's rows are built once, for both of its kernels
    listed = H.present if isinstance(H, oracle.ExtensionFamily) else None
    for lo in range(0, len(pool), step):
        part = pool[lo:lo + step]
        if listed is not None:
            present = listed[lo:lo + step]
        else:
            present = np.zeros((len(part), size), dtype=bool)
            present[:, fixed] = True
            present[np.arange(len(part))[:, None], part] = True
        kernel(table, leads, part, present, counts[lo:lo + step])
    return counts


def forward_counts(H: Members, G: AnyGraph, kind: str, *,
                   edge: Edge | None = None,
                   pair: tuple[int, int] | None = None) -> np.ndarray:
    """Legal switching moves of the given kind out of each member of H, in
    member order (see `Members` for what H may be)."""
    return _counts(H, G, kind, edge, pair, _forward_block)


def forward_count(H: Members, G: AnyGraph, kind: str, *,
                  edge: Edge | None = None,
                  pair: tuple[int, int] | None = None) -> int:
    """Number of legal switching moves out of H of the given kind; for
    several members, the total over them."""
    return int(forward_counts(H, G, kind, edge=edge, pair=pair).sum())


def backward_counts(Hp: Members, G: AnyGraph, kind: str, *,
                    edge: Edge | None = None,
                    pair: tuple[int, int] | None = None) -> np.ndarray:
    """(source, move) reconstructions landing on each member of Hp, in
    member order."""
    return _counts(Hp, G, kind, edge, pair, _backward_block)


def backward_count(Hp: Members, G: AnyGraph, kind: str, *,
                   edge: Edge | None = None,
                   pair: tuple[int, int] | None = None) -> int:
    """Number of (source, move) reconstructions landing on Hp; for several
    members, the total over them."""
    return int(backward_counts(Hp, G, kind, edge=edge, pair=pair).sum())
