"""Switching moves: mechanics, statistic drops, and exact double counting."""

import re

import numpy as np
import pytest

from hypercouple import (
    DomainError,
    Hypergraph,
    IllegalSwitchError,
    OrderedHypergraph,
    Params,
    SwitchingMove,
    backward_count,
    codegree_rel,
    count_extensions,
    forward_count,
    iter_backward_moves,
    iter_forward_moves,
    residual_degrees,
    switching_class_sizes,
)
from hypercouple import switchings
from hypercouple.oracle import KINDS
from hypercouple.switchings import (
    apply_switch,
    backward_counts,
    forward_counts,
)


def family(n, k, d, base_edges=()):
    """The listed family, its base and its members as graphs."""
    params = Params(n, k, d)
    base = OrderedHypergraph(n, k, base_edges)
    fam = count_extensions(base, params, list_completions=True)
    graphs = [Hypergraph(n, k, list(base.edges) + list(tail))
              for tail in fam.completions]
    return fam, base, graphs


def pair_stat(graphs, base, kind, u=1, v=2):
    """Each member's pair statistic, counted on the graph itself."""
    if kind == "pair_degree":
        return np.array([sum(1 for e in h.edge_set - base.edge_set
                             if u in e and v in e) for h in graphs])
    return np.array([codegree_rel(h, base, u, v) for h in graphs])


class TestMoveMechanics:
    def test_apply_preserves_degree_sequence(self):
        h = Hypergraph(6, 2, [(1, 2), (3, 4), (5, 6)])
        move = SwitchingMove(rows=((1, 2), (3, 4)))
        out = apply_switch(h, move)
        assert all(out.degree(v) == h.degree(v) for v in range(1, 7))
        assert (1, 3) in out.edge_set and (2, 4) in out.edge_set
        assert (1, 2) not in out.edge_set

    def test_inverse_round_trip(self):
        h = Hypergraph(6, 2, [(1, 2), (3, 4), (5, 6)])
        move = SwitchingMove(rows=((1, 2), (3, 4)))
        there = apply_switch(h, move)
        back = apply_switch(there, move.inverse())
        assert back.edge_set == h.edge_set

    def test_illegal_moves_are_named(self):
        h = Hypergraph(6, 2, [(1, 2), (3, 4)])
        with pytest.raises(IllegalSwitchError):
            apply_switch(h, SwitchingMove(rows=((1, 2), (2, 3))))  # overlap
        with pytest.raises(IllegalSwitchError):
            apply_switch(h, SwitchingMove(rows=((1, 2), (5, 6))))  # absent
        with pytest.raises(IllegalSwitchError):
            apply_switch(h, SwitchingMove(rows=((1, 2),)))         # shape

    def test_forward_move_lands_outside_when_column_present(self):
        # a column equal to a kept edge of H is rejected by legality
        h = Hypergraph(6, 2, [(1, 2), (3, 4), (1, 3), (5, 6)])
        g = Hypergraph(6, 2)
        moves = list(iter_forward_moves(h, g, "remove_edge", edge=(1, 2)))
        for mv in moves:
            out = apply_switch(h, mv)
            assert (1, 2) not in out.edge_set
            assert len(out) == len(h)


class TestStatisticDrops:
    def test_pair_degree_drops_by_one(self):
        fam, base, graphs = family(5, 2, 2)
        for h in graphs:
            before = sum(1 for e in h.edge_set if 1 in e and 2 in e)
            for mv in iter_forward_moves(h, base, "pair_degree", pair=(1, 2)):
                out = apply_switch(h, mv)
                after = sum(1 for e in out.edge_set if 1 in e and 2 in e)
                assert after == before - 1

    def test_codegree_drops_by_one(self):
        fam, base, graphs = family(5, 2, 2)
        for h in graphs:
            before = codegree_rel(h, base, 1, 2)
            for mv in iter_forward_moves(h, base, "codegree", pair=(1, 2)):
                out = apply_switch(h, mv)
                assert codegree_rel(out, base, 1, 2) == before - 1

    def test_remove_edge_removes_it(self):
        fam, base, graphs = family(5, 2, 2)
        e = (1, 2)
        for h in graphs:
            if e not in h.edge_set:
                continue
            for mv in iter_forward_moves(h, base, "remove_edge", edge=e):
                assert e not in apply_switch(h, mv).edge_set


class TestDoubleCounting:
    """Moves out of class L against moves into class L-1, one kernel call
    per class."""

    @pytest.mark.parametrize("kind", ["pair_degree", "codegree"])
    def test_class_sums_balance_exactly(self, kind):
        fam, base, graphs = family(5, 2, 2)
        stat = pair_stat(graphs, base, kind)
        for level in np.unique(stat).tolist():
            fsum = forward_count(fam.restrict(stat == level), base, kind,
                                 pair=(1, 2))
            bsum = backward_count(fam.restrict(stat == level - 1), base,
                                  kind, pair=(1, 2))
            assert fsum == bsum

    def test_remove_edge_sums_balance_exactly(self):
        fam, base, graphs = family(5, 2, 2)
        e = (1, 2)
        having = np.array([e in h.edge_set for h in graphs])
        fsum = forward_count(fam.restrict(having), base, "remove_edge",
                             edge=e)
        bsum = backward_count(fam.restrict(~having), base, "remove_edge",
                              edge=e)
        assert fsum == bsum > 0

    def test_backward_sources_are_family_members_one_level_up(self):
        fam, base, graphs = family(5, 2, 2)
        keys = {tuple(sorted(h.edge_set)) for h in graphs}
        for h in graphs:
            lvl = sum(1 for e in h.edge_set if 1 in e and 2 in e)
            for src, mv in iter_backward_moves(h, base, "pair_degree",
                                               pair=(1, 2)):
                assert tuple(sorted(src.edge_set)) in keys
                assert sum(1 for e in src.edge_set
                           if 1 in e and 2 in e) == lvl + 1
                assert apply_switch(src, mv).edge_set == h.edge_set

    def test_nonempty_base_balances_too(self):
        fam, base, graphs = family(6, 2, 2, base_edges=[(1, 2)])
        # statistic counts only pair copies outside the fixed prefix
        stat = pair_stat(graphs, base, "pair_degree")
        for level in np.unique(stat).tolist():
            fsum = forward_count(fam.restrict(stat == level), base,
                                 "pair_degree", pair=(1, 2))
            bsum = backward_count(fam.restrict(stat == level - 1), base,
                                  "pair_degree", pair=(1, 2))
            assert fsum == bsum

    # moveless: the kinds with no move in the family.  A move needs k
    # disjoint edges, so below n = k^2 no kind has one and both sides must
    # be empty; at k = 2 a base edge (1, 2) leaves pair (1, 2) degree 0 in
    # every member
    @pytest.mark.parametrize("nkd, base_edges, moveless", [
        ((5, 2, 2), [], ()),
        ((6, 2, 2), [(1, 2)], ("pair_degree",)),
        ((7, 2, 2), [], ()),
        ((8, 2, 2), [(1, 3)], ()),
        ((6, 3, 2), [], KINDS),
        ((7, 3, 3), [(1, 2, 3), (1, 4, 5)], KINDS),
        ((8, 4, 2), [], KINDS),
        ((9, 3, 2), [(1, 4, 5), (6, 7, 8)], ()),
    ])
    @pytest.mark.parametrize("kind, target", [
        ("pair_degree", {"pair": (1, 2)}),
        ("codegree", {"pair": (1, 2)}),
        ("codegree", {"pair": (3, 1)}),
        ("remove_edge", {}),
    ])
    def test_forward_and_backward_moves_are_one_set(self, nkd, base_edges,
                                                    moveless, kind, target):
        # equal counts cannot see a wrong source whose count happens to
        # match: each (target, source, move) triple must appear once on
        # both sides
        fam, base, graphs = family(*nkd, base_edges=base_edges)
        if kind == "remove_edge":
            target = {"edge": tuple(range(2, nkd[1] + 2))}
        holds = [kind != "remove_edge" or target["edge"] in h.edge_set
                 for h in graphs]
        lacks = [kind != "remove_edge" or not x for x in holds]
        out = [(frozenset(apply_switch(h, move).edge_set),
                frozenset(h.edge_set), move)
               for h, x in zip(graphs, holds) if x
               for move in iter_forward_moves(h, base, kind, **target)]
        into = [(frozenset(h.edge_set), frozenset(source.edge_set), move)
                for h, x in zip(graphs, lacks) if x
                for source, move in iter_backward_moves(h, base, kind,
                                                        **target)]
        assert len(set(out)) == len(out) and len(set(into)) == len(into)
        assert set(out) == set(into)
        assert bool(out) == (kind not in moveless)


def iterated(graphs, base, kind, forward, **target):
    moves = iter_forward_moves if forward else iter_backward_moves
    return [sum(1 for _ in moves(h, base, kind, **target)) for h in graphs]


class TestKernelAgainstIterators:
    """The class-wide kernels against the enumerating iterators, member by
    member."""

    @pytest.mark.parametrize("kind, target", [
        ("pair_degree", {"pair": (1, 2)}),
        ("pair_degree", {"pair": (4, 2)}),
        ("codegree", {"pair": (1, 2)}),
        ("codegree", {"pair": (5, 3)}),
    ])
    def test_every_member_of_the_522_family(self, kind, target):
        fam, base, graphs = family(5, 2, 2)
        for forward, counts in ((True, forward_counts),
                                (False, backward_counts)):
            assert counts(fam, base, kind, **target).tolist() == \
                iterated(graphs, base, kind, forward, **target)

    @pytest.mark.parametrize("e", [(1, 2), (2, 5)])
    def test_remove_edge_on_the_522_family(self, e):
        fam, base, graphs = family(5, 2, 2)
        having = np.array([e in h.edge_set for h in graphs])
        upper = [h for h, x in zip(graphs, having) if x]
        lower = [h for h, x in zip(graphs, having) if not x]
        got = forward_counts(fam.restrict(having), base, "remove_edge",
                             edge=e)
        assert got.tolist() == iterated(upper, base, "remove_edge", True,
                                        edge=e)
        got = backward_counts(fam.restrict(~having), base, "remove_edge",
                              edge=e)
        assert got.tolist() == iterated(lower, base, "remove_edge", False,
                                        edge=e)

    # (6,2,2) with base edge (1, 2) and (6,3,2) below n = k^2 have no
    # pair-degree move: they check that the kernels find none either
    @pytest.mark.parametrize("nkd, base_edges, moves", [
        ((6, 2, 2), [(1, 2)], False),
        ((7, 2, 2), [], True),
        ((6, 3, 2), [], False),
        ((9, 3, 2), [(3, 4, 5)], True),
    ])
    def test_every_member_pair_degree(self, nkd, base_edges, moves):
        fam, base, graphs = family(*nkd, base_edges=base_edges)
        forward = forward_counts(fam, base, "pair_degree", pair=(1, 2))
        backward = backward_counts(fam, base, "pair_degree", pair=(1, 2))
        expected_forward = iterated(graphs, base, "pair_degree", True,
                                    pair=(1, 2))
        expected_backward = iterated(graphs, base, "pair_degree", False,
                                     pair=(1, 2))
        assert forward.tolist() == expected_forward
        assert backward.tolist() == expected_backward
        assert (sum(expected_forward) > 0) == moves
        assert (sum(expected_backward) > 0) == moves

    @pytest.mark.parametrize("kind", ["pair_degree", "codegree"])
    def test_small_chunks_split_the_family(self, kind, monkeypatch):
        # a few members per chunk and a few partial moves per walk block, so
        # the per-chunk tables are rebuilt many times within one call
        monkeypatch.setattr(switchings, "_CELLS", 1 << 10)
        fam, base, graphs = family(9, 3, 2, base_edges=[(3, 4, 5)])
        for forward, counts in ((True, forward_counts),
                                (False, backward_counts)):
            assert counts(fam, base, kind, pair=(1, 2)).tolist() == \
                iterated(graphs, base, kind, forward, pair=(1, 2))

    @pytest.mark.parametrize("fixed", [[(3, 4, 5)], []])
    @pytest.mark.parametrize("kind, target", [
        ("pair_degree", {"pair": (1, 2)}),
        ("codegree", {"pair": (1, 2)}),
        ("remove_edge", {"edge": (1, 2, 6)}),
    ])
    def test_a_family_counts_as_its_members_do(self, kind, target, fixed):
        # G is the family's base: the kernels read its tails as the pools;
        # G strictly inside the base: they rank every member's edges, as
        # they do for the same members passed as graphs
        fam, _, graphs = family(9, 3, 2, base_edges=[(3, 4, 5)])
        g = OrderedHypergraph(9, 3, fixed)
        assert (switchings._pool_rows(fam, g)[1] is fam.tails) == bool(fixed)
        having = (fam.holds(target["edge"]) if kind == "remove_edge"
                  else np.ones(len(graphs), dtype=bool))
        lower = ~having if kind == "remove_edge" else having
        for counts, which in ((forward_counts, having),
                              (backward_counts, lower)):
            members = [h for h, x in zip(graphs, which) if x]
            got = counts(fam.restrict(which), g, kind, **target)
            assert got.tolist() == counts(members, g, kind, **target).tolist()
            assert got.sum() > 0

    @pytest.mark.parametrize("kind", ["pair_degree", "codegree"])
    def test_backward_walk_starts_only_from_completable_leads(self, kind):
        # a (member, row 1) pair is walked only when row 1 is absent, its
        # anchor present, and every row-1 vertex has a pool edge meeting
        # row 1 there alone (not the anchor); a dropped pair has no move
        fam, base, graphs = family(9, 3, 2, base_edges=[(3, 4, 5)])
        table, pool, fixed = switchings._pool_rows(fam, base)
        leads = switchings._leads(9, 3, kind, (1, 2))
        present = np.zeros((len(pool), len(table.vertices)), dtype=bool)
        present[:, fixed] = True
        present[np.arange(len(pool))[:, None], pool] = True
        member, lead, _ = switchings._backward_leads(table, leads, pool,
                                                     present)
        kept = set(zip(member.tolist(), lead.tolist()))
        rows = [tuple(r) for r in leads.rows.tolist()]
        anchors = [tuple(table.vertices[a].tolist()) if a >= 0 else None
                   for a in leads.anchors]
        started, expected = set(), set()
        for i, h in enumerate(graphs):
            own = h.edge_set - base.edge_set
            for j, (row1, anchor) in enumerate(zip(rows, anchors)):
                if tuple(sorted(row1)) in h.edge_set or (
                        anchor is not None and anchor not in h.edge_set):
                    continue
                started.add((i, j))
                if all(any(set(g) & set(row1) == {x} and g != anchor
                           for g in own) for x in row1):
                    expected.add((i, j))
        assert kept == expected < started
        for i, h in enumerate(graphs):
            for _, move in iter_backward_moves(h, base, kind, pair=(1, 2)):
                j = rows.index(move.rows[0])
                assert move.anchor == anchors[j] and (i, j) in kept

    @pytest.mark.parametrize("kind", ["pair_degree", "codegree"])
    def test_class_totals_are_sums_of_single_graph_counts(self, kind):
        fam, base, graphs = family(7, 2, 2)
        stat = pair_stat(graphs, base, kind)
        for level in np.unique(stat).tolist():
            members = [h for h, s in zip(graphs, stat) if s == level]
            for count in (forward_count, backward_count):
                whole = count(fam.restrict(stat == level), base, kind,
                              pair=(1, 2))
                assert type(whole) is int
                assert whole == sum(count(h, base, kind, pair=(1, 2))
                                    for h in members)
                # a plain sequence of graphs is the same batch
                assert whole == count(members, base, kind, pair=(1, 2))

    def test_four_uniform_rows_split_every_way(self):
        # n = 16, k = 4: four disjoint rows, so rebuilding a move walks the
        # (k-1)!^(k-1) splits of the column leftovers
        h = Hypergraph(16, 4, [(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12),
                               (13, 14, 15, 16)])
        g = Hypergraph(16, 4)
        for kind, target in (("pair_degree", {"pair": (1, 2)}),
                             ("remove_edge", {"edge": (1, 2, 3, 4)})):
            moves = list(iter_forward_moves(h, g, kind, **target))
            assert forward_count(h, g, kind, **target) == len(moves) == 1
            there = apply_switch(h, moves[0])
            assert backward_count(there, g, kind, **target) == \
                sum(1 for _ in iter_backward_moves(there, g, kind, **target))
            assert backward_count(there, g, kind, **target) > 0

    def test_a_graph_past_64_vertices(self):
        # vertex masks take two words at n = 70: a 2-regular graph made of
        # one 20-cycle and ten 5-cycles, with one edge held fixed
        cycles = [list(range(1, 21))] + [list(range(21 + 5 * i, 26 + 5 * i))
                                         for i in range(10)]
        h = Hypergraph(70, 2, [(c[i], c[(i + 1) % len(c)])
                               for c in cycles for i in range(len(c))])
        g = Hypergraph(70, 2, [(1, 2)])
        assert residual_degrees(h, Params(70, 2, 2)).max() == 0
        cases = [("pair_degree", {"pair": (2, 3)}),
                 ("pair_degree", {"pair": (1, 69)}),
                 ("codegree", {"pair": (69, 3)}),
                 ("codegree", {"pair": (66, 67)}),
                 ("remove_edge", {"edge": (69, 70)})]
        for kind, target in cases:
            assert forward_count(h, g, kind, **target) == \
                iterated([h], g, kind, True, **target)[0]
            if kind != "remove_edge":
                assert backward_count(h, g, kind, **target) == \
                    iterated([h], g, kind, False, **target)[0]
        assert backward_count(h, g, "remove_edge", edge=(3, 70)) == \
            iterated([h], g, "remove_edge", False, edge=(3, 70))[0] > 0
        assert forward_count(h, g, "pair_degree", pair=(2, 3)) > 0

    def test_no_edge_can_lead_when_n_equals_k(self):
        # codegree needs W + {u} and W + {v} with |W| = k - 1 outside u, v
        h, g = Hypergraph(3, 3, [(1, 2, 3)]), Hypergraph(3, 3)
        for kind in ("pair_degree", "codegree"):
            assert forward_count(h, g, kind, pair=(1, 2)) == 0
            assert backward_count(g, g, kind, pair=(1, 2)) == 0
            assert iterated([h], g, kind, True, pair=(1, 2)) == [0]
            assert iterated([g], g, kind, False, pair=(1, 2)) == [0]

    def test_members_of_mixed_sizes_are_rejected(self):
        g = Hypergraph(5, 2)
        mixed = [Hypergraph(5, 2, [(1, 2), (3, 4)]), Hypergraph(5, 2, [(1, 2)])]
        for count in (forward_count, backward_count):
            with pytest.raises(DomainError, match="different edge counts"):
                count(mixed, g, "pair_degree", pair=(1, 2))

    def test_a_member_without_g_is_rejected(self):
        fam, base, graphs = family(5, 2, 2)
        g = Hypergraph(5, 2, [(1, 2)])  # in some members, not all
        assert 0 < sum((1, 2) in h.edge_set for h in graphs) < len(graphs)
        for count in (forward_count, backward_count):
            with pytest.raises(DomainError, match="subgraph"):
                count(fam, g, "pair_degree", pair=(1, 3))
            with pytest.raises(DomainError, match="subgraph"):
                count(graphs, g, "pair_degree", pair=(1, 3))

    def test_remove_edge_guards_hold_for_every_member(self):
        fam, base, graphs = family(5, 2, 2)
        with pytest.raises(DomainError, match="not in H"):
            forward_count(fam, base, "remove_edge", edge=(1, 2))
        with pytest.raises(DomainError, match="present in the target"):
            backward_count(fam, base, "remove_edge", edge=(2, 1))


class TestArgumentGuards:
    def test_kind_and_argument_validation(self):
        h = Hypergraph(5, 2, [(1, 2)])
        g = Hypergraph(5, 2)
        with pytest.raises(DomainError):
            forward_count(h, g, "frobnicate", pair=(1, 2))
        with pytest.raises(DomainError):
            forward_count(h, g, "pair_degree")            # pair missing
        with pytest.raises(DomainError):
            forward_count(h, g, "pair_degree", pair=(1, 1))
        with pytest.raises(DomainError):
            forward_count(h, g, "remove_edge", edge=(3, 4))  # not in H
        with pytest.raises(DomainError):
            forward_count(Hypergraph(5, 2), h, "pair_degree", pair=(1, 2))


def refusal(call) -> str:
    """The message of the DomainError `call` raises."""
    with pytest.raises(DomainError) as info:
        call()
    return str(info.value)


class TestOneSwitchingRequest:
    """Every entry point checks a switching request through
    `oracle.switching_target`, so the iterators, the kernels and the class
    sizes refuse bad input with one message."""

    H = Hypergraph(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    G = Hypergraph(5, 2, [(4, 5)])

    # sides: the directions that refuse the request, forward f, backward b
    @pytest.mark.parametrize("kind, target, sides, message", [
        ("frobnicate", {"pair": (1, 2)}, "fb", "unknown switching kind"),
        ("remove_edge", {"pair": (1, 2)}, "fb", "needs edge="),
        ("codegree", {"edge": (1, 2)}, "fb", "needs pair="),
        ("pair_degree", {"pair": (1, 1)}, "fb", "two distinct vertices"),
        ("codegree", {"pair": (0, 2)}, "fb", r"must lie in 1\.\.5"),
        ("pair_degree", {"pair": (1, 6)}, "fb", r"must lie in 1\.\.5"),
        ("remove_edge", {"edge": (1, 1)}, "fb", "repeated vertex"),
        ("remove_edge", {"edge": (1, 2, 3)}, "fb", "expected k=2"),
        ("remove_edge", {"edge": (1, 9)}, "fb", "leaves the vertex range"),
        ("remove_edge", {"edge": (3, 1)}, "f", r"\(1, 3\) is not in H"),
        ("remove_edge", {"edge": (4, 5)}, "f", "lies in the fixed prefix"),
        ("remove_edge", {"edge": (2, 1)}, "b", "present in the target"),
        ("remove_edge", {"edge": (4, 5)}, "b", "present in the target"),
    ])
    def test_every_entry_point_gives_one_message(self, kind, target, sides,
                                                 message):
        H, G = self.H, self.G
        calls = []
        if "f" in sides:
            calls += [lambda: list(iter_forward_moves(H, G, kind, **target)),
                      lambda: forward_count(H, G, kind, **target)]
        if "b" in sides:
            calls += [lambda: list(iter_backward_moves(H, G, kind, **target)),
                      lambda: backward_count(H, G, kind, **target)]
        if kind != "remove_edge" and "pair" in target:
            (u, v), base = target["pair"], OrderedHypergraph(5, 2)
            params = Params(5, 2, 2)
            calls.append(
                lambda: switching_class_sizes(base, u, v, kind, params))
        said = {refusal(call) for call in calls}
        assert len(said) == 1
        assert re.search(message, said.pop())
