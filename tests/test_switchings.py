"""Switching moves: mechanics, statistic drops, and exact double counting."""

import pytest

from hypercouple import (
    DomainError,
    Hypergraph,
    IllegalSwitchError,
    OrderedHypergraph,
    Params,
    RngStream,
    SwitchingMove,
    backward_count,
    codegree_rel,
    count_extensions,
    forward_count,
    iter_backward_moves,
    iter_forward_moves,
    switching_class_sizes,
    tail_profile,
)
from hypercouple.switchings import apply_switch, edge_probability


def family(n, k, d, base_edges=()):
    params = Params(n, k, d)
    base = OrderedHypergraph(n, k, base_edges)
    fam = count_extensions(base, params, list_completions=True)
    graphs = [Hypergraph(n, k, list(base.edges) + list(tail))
              for tail in fam.completions]
    return params, base, graphs


class TestMoveMechanics:
    def test_apply_preserves_degree_sequence(self):
        h = Hypergraph(6, 2, [(1, 2), (3, 4), (5, 6)])
        move = SwitchingMove(rows=((1, 2), (3, 4)))
        out = apply_switch(h, move)
        assert out.degree_map() == h.degree_map()
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
        params, base, graphs = family(5, 2, 2)
        for h in graphs:
            before = sum(1 for e in h.edge_set if 1 in e and 2 in e)
            for mv in iter_forward_moves(h, base, "pair_degree", pair=(1, 2)):
                out = apply_switch(h, mv)
                after = sum(1 for e in out.edge_set if 1 in e and 2 in e)
                assert after == before - 1

    def test_codegree_drops_by_one(self):
        params, base, graphs = family(5, 2, 2)
        for h in graphs:
            before = codegree_rel(h, base, 1, 2)
            for mv in iter_forward_moves(h, base, "codegree", pair=(1, 2)):
                out = apply_switch(h, mv)
                assert codegree_rel(out, base, 1, 2) == before - 1

    def test_remove_edge_removes_it(self):
        params, base, graphs = family(5, 2, 2)
        e = (1, 2)
        for h in graphs:
            if e not in h.edge_set:
                continue
            for mv in iter_forward_moves(h, base, "remove_edge", edge=e):
                assert e not in apply_switch(h, mv).edge_set


class TestDoubleCounting:
    @pytest.mark.parametrize("kind", ["pair_degree", "codegree"])
    def test_class_sums_balance_exactly(self, kind):
        params, base, graphs = family(5, 2, 2)
        stat = {}
        for h in graphs:
            if kind == "pair_degree":
                stat[h] = sum(1 for e in h.edge_set if 1 in e and 2 in e)
            else:
                stat[h] = codegree_rel(h, base, 1, 2)
        for level in sorted(set(stat.values())):
            fsum = sum(forward_count(h, base, kind, pair=(1, 2))
                       for h, s in stat.items() if s == level)
            bsum = sum(backward_count(h, base, kind, pair=(1, 2))
                       for h, s in stat.items() if s == level - 1)
            assert fsum == bsum

    def test_remove_edge_sums_balance_exactly(self):
        params, base, graphs = family(5, 2, 2)
        e = (1, 2)
        fsum = sum(forward_count(h, base, "remove_edge", edge=e)
                   for h in graphs if e in h.edge_set)
        bsum = sum(backward_count(h, base, "remove_edge", edge=e)
                   for h in graphs if e not in h.edge_set)
        assert fsum == bsum > 0

    def test_backward_sources_are_family_members_one_level_up(self):
        params, base, graphs = family(5, 2, 2)
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
        params, base, graphs = family(6, 2, 2, base_edges=[(1, 2)])
        # statistic counts only pair copies outside the fixed prefix
        stat = {h: sum(1 for e in h.edge_set - base.edge_set
                       if 1 in e and 2 in e) for h in graphs}
        for level in sorted(set(stat.values())):
            fsum = sum(forward_count(h, base, "pair_degree", pair=(1, 2))
                       for h, s in stat.items() if s == level)
            bsum = sum(backward_count(h, base, "pair_degree", pair=(1, 2))
                       for h, s in stat.items() if s == level - 1)
            assert fsum == bsum


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


class TestProbesAgainstOracle:
    def test_edge_probability_matches_exact_ratio(self):
        params = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        est = edge_probability(g, (4, 5, 6), params, 3000, RngStream(17))
        assert est.exact is not None
        assert est.ci_low <= float(est.exact) <= est.ci_high

    def test_tail_profile_exact_route_matches_class_sizes(self):
        params = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3)
        prof = tail_profile(g, 1, 2, "pair_degree", params, exact="require")
        cs = switching_class_sizes(g, 1, 2, "pair_degree", params)
        assert prof.exact
        total = sum(cs.unordered_sizes.values())
        for val, cnt in cs.unordered_sizes.items():
            assert prof.distribution[val] == pytest.approx(cnt / total)

    @pytest.mark.parametrize("exact", ["never", "require"])
    @pytest.mark.parametrize("u, v", [(1, 7), (0, 2)])
    def test_tail_profile_rejects_a_pair_outside_the_vertices(self, u, v,
                                                              exact):
        with pytest.raises(DomainError, match="must lie in 1..6"):
            tail_profile(OrderedHypergraph(6, 3), u, v, "pair_degree",
                         Params(6, 3, 2), RngStream(0), trials=5,
                         exact=exact)

    def test_unknown_exact_mode_is_rejected(self):
        params = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3)
        with pytest.raises(DomainError, match="exact must be one of"):
            edge_probability(g, (4, 5, 6), params, 5, RngStream(0),
                             exact="Never")
        with pytest.raises(DomainError, match="exact must be one of"):
            tail_profile(g, 1, 2, "pair_degree", params, RngStream(0),
                         trials=5, exact="exact")
