"""Exact enumeration oracles: frozen counts, identities, budgets.

Numeric fixtures were derived once by running the enumerators at desk scale
and are frozen here; several coincide with classical values (105 perfect
matchings of K8, 70 labeled 2-regular graphs on 6 vertices), which ties the
backtracking counter to independent combinatorics.
"""

import math
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypercouple import oracle
from hypercouple import (
    DomainError,
    OrderedHypergraph,
    OracleBudgetError,
    Params,
    completion_count,
    count_extensions,
    exact_next_edge_distribution,
    exact_simplicity_probability,
    extension_family,
    residual_degrees,
    switching_class_sizes,
    verify_ratio_identity,
)
from hypercouple.samplers import simplicity_from_completions


def empty(n, k):
    return OrderedHypergraph(n, k)


FROZEN_COUNTS = [
    # (n, k, d) -> (unordered completions of the empty prefix, ordered)
    ((4, 2, 1), (3, 6)),
    ((2, 2, 2), (0, 0)),
    ((6, 3, 2), (75, 1800)),
    ((4, 2, 2), (3, 72)),
    ((4, 2, 3), (1, 720)),     # complete 2-graph is the unique 3-regular one
    ((6, 2, 2), (70, 50400)),  # labeled 2-regular graphs on 6 vertices
    ((8, 2, 1), (105, 2520)),  # perfect matchings of K8 = 7!!
]


class TestCounts:
    @pytest.mark.parametrize("nkd,expect", FROZEN_COUNTS)
    def test_frozen_family_sizes(self, nkd, expect):
        n, k, d = nkd
        fam = count_extensions(empty(n, k), Params(n, k, d))
        assert (fam.unordered_count, fam.ordered_count) == expect

    def test_ordered_is_unordered_times_factorial(self):
        p = Params(6, 3, 2)
        fam = count_extensions(empty(6, 3), p)
        assert fam.ordered_count == fam.unordered_count * math.factorial(p.M)

    def test_listing_matches_count_and_is_sorted_unique(self):
        p = Params(6, 3, 2)
        fam = count_extensions(empty(6, 3), p, list_completions=True)
        assert len(fam.completions) == fam.unordered_count
        assert len(set(fam.completions)) == fam.unordered_count
        for tail in fam.completions:
            assert list(tail) == sorted(tail)

    def test_prefix_conditioning(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        fam = count_extensions(g, p, list_completions=True)
        assert fam.unordered_count == sum(
            1 for _ in fam.completions)
        total = count_extensions(empty(6, 3), p).unordered_count
        # every graph through (1,2,3): deg share = M*? sanity: strictly fewer
        assert 0 < fam.unordered_count < total

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "5")
        with pytest.raises(OracleBudgetError, match="5 nodes"):
            count_extensions(empty(6, 3), Params(6, 3, 2))


class TestConfigurationIdentity:
    @pytest.mark.parametrize("nkd", [(4, 2, 2), (6, 3, 2), (6, 2, 2)])
    def test_simplicity_times_configurations_counts_ordered_tails(self, nkd):
        # P(simple) * N equals (#ordered simple tails) * (k!)^M, where N is
        # the number of distinct vertex-copy sequences (nd)!/(d!)^n; the left
        # side comes from the sequential counter, the right from the
        # backtracking enumerator, so agreement ties the two together.
        n, k, d = nkd
        p = Params(n, k, d)
        ps = exact_simplicity_probability(empty(n, k), p)
        fam = count_extensions(empty(n, k), p)
        n_seq = Fraction(math.factorial(n * d), math.factorial(d) ** n)
        ordered_tails = fam.unordered_count * math.factorial(p.M)
        assert ps * n_seq == ordered_tails * math.factorial(k) ** p.M

    @pytest.mark.parametrize("nkd, prefix", [
        ((6, 3, 2), ()),
        ((6, 3, 2), ((1, 2, 3),)),
        ((6, 2, 2), ((1, 2), (1, 3))),
        ((9, 3, 2), ((1, 2, 3), (1, 4, 5))),
        ((7, 3, 3), ((1, 2, 3), (4, 5, 6))),
    ])
    def test_count_route_equals_direct_enumeration(self, nkd, prefix):
        p = Params(*nkd)
        g = OrderedHypergraph(p.n, p.k, prefix)
        u = count_extensions(g, p).unordered_count
        assert simplicity_from_completions(g, p, u) \
            == exact_simplicity_probability(g, p)

    def test_frozen_simplicity_probabilities(self):
        assert exact_simplicity_probability(empty(6, 3), Params(6, 3, 2)) \
            == Fraction(24, 77)
        assert exact_simplicity_probability(empty(4, 2, ), Params(4, 2, 2)) \
            == Fraction(16, 35)
        assert exact_simplicity_probability(empty(6, 2), Params(6, 2, 2)) \
            == Fraction(128, 297)
        assert exact_simplicity_probability(empty(8, 2), Params(8, 2, 1)) == 1

    def test_impossible_instance_has_zero_mass(self):
        assert exact_simplicity_probability(empty(2, 2), Params(2, 2, 2)) == 0


class TestNextEdgeLaw:
    def test_law_is_a_probability_distribution(self):
        p = Params(6, 3, 2)
        law = exact_next_edge_distribution(empty(6, 3), p)
        assert sum(law.values()) == 1
        assert all(pr >= 0 for pr in law.values())
        assert len(law) == p.complete_count

    def test_empty_prefix_law_is_uniform_by_symmetry(self):
        p = Params(6, 3, 2)
        law = exact_next_edge_distribution(empty(6, 3), p)
        assert set(law.values()) == {Fraction(1, 20)}

    def test_frozen_conditioned_law(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        law = exact_next_edge_distribution(g, p)
        assert len(law) == 19
        assert set(law.values()) == {Fraction(1, 45), Fraction(1, 15),
                                     Fraction(1, 5)}
        assert law[(4, 5, 6)] == Fraction(1, 5)   # disjoint edge is favored
        assert law[(1, 2, 4)] == Fraction(1, 45)  # heavy overlap is rare
        assert sum(law.values()) == 1

    def test_law_matches_count_ratio(self):
        # p(e | G) = U(G+e) / (U(G) * (M - t)) edge by edge
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        law = exact_next_edge_distribution(g, p)
        u_g = count_extensions(g, p).unordered_count
        for e, pr in law.items():
            u_e = count_extensions(
                OrderedHypergraph(6, 3, [(1, 2, 3), e]), p).unordered_count
            assert pr == Fraction(u_e, u_g * (p.M - 1))


class TestRatioIdentity:
    def test_symmetric_pair_has_ratio_one(self):
        rep = verify_ratio_identity(empty(6, 3), (1, 2, 3), (4, 5, 6),
                                    Params(6, 3, 2))
        assert rep.extension_ratio == rep.rhs == 1

    def test_identity_exact_on_conditioned_prefix(self):
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        p = Params(6, 3, 2)
        rep = verify_ratio_identity(g, (1, 2, 4), (4, 5, 6), p)
        assert rep.extension_ratio == rep.rhs
        assert rep.extension_ratio == Fraction(1, 9)

    def test_inadmissible_e_gives_zero_both_sides(self):
        g = OrderedHypergraph(4, 2, [(1, 2), (1, 3)])
        rep = verify_ratio_identity(g, (1, 4), (3, 4), Params(4, 2, 2))
        # vertex 1 already has full degree: wait, d=2 and deg(1)=2
        assert rep.extension_ratio == rep.rhs == 0

    def test_inadmissible_f_rejected(self):
        g = OrderedHypergraph(4, 2, [(1, 2), (1, 3)])
        with pytest.raises(DomainError):
            verify_ratio_identity(g, (3, 4), (1, 4), Params(4, 2, 2))


class TestClassSizes:
    @pytest.mark.parametrize("u, v", [(1, 9), (0, 2), (7, 1), (3, 3)])
    def test_pair_outside_the_vertices_is_rejected(self, u, v):
        with pytest.raises(DomainError):
            switching_class_sizes(empty(6, 3), u, v, "pair_degree",
                                  Params(6, 3, 2))

    def test_frozen_pair_degree_classes(self):
        cs = switching_class_sizes(empty(6, 3), 1, 2, "pair_degree",
                                   Params(6, 3, 2))
        assert cs.unordered_sizes == {0: 21, 1: 48, 2: 6}
        assert cs.total_ordered == 1800
        assert (cs.bottom, cs.top, cs.is_interval) == (0, 2, True)

    def test_sizes_sum_to_family(self):
        cs = switching_class_sizes(empty(6, 3), 1, 2, "codegree",
                                   Params(6, 3, 2))
        assert sum(cs.unordered_sizes.values()) == 75


def with_edges(g, edges):
    return OrderedHypergraph(g.n, g.k, list(g.edges) + list(edges))


class TestFamilyAgainstCounter:
    """The listed family's row filters and column sums against fresh walks of
    the counting backtracker, which lists nothing."""

    PREFIXES = [
        ((6, 3, 2), []),
        ((6, 3, 2), [(1, 2, 3)]),
        ((6, 3, 2), [(1, 2, 3), (1, 4, 5)]),
        ((6, 3, 2), [(1, 2, 3), (4, 5, 6), (1, 2, 4)]),
        ((7, 3, 3), [(1, 2, 3)]),
        ((7, 3, 3), [(1, 2, 3), (1, 4, 5), (2, 6, 7)]),
        ((8, 2, 3), [(1, 2), (3, 4)]),
    ]

    @pytest.mark.parametrize("nkd,edges", PREFIXES)
    def test_state_weights_are_completion_counts(self, nkd, edges):
        p = Params(*nkd)
        g = OrderedHypergraph(p.n, p.k, edges)
        law = extension_family(empty(p.n, p.k), p).state(
            frozenset(g.edge_set))
        expected = [count_extensions(with_edges(g, [e]), p).unordered_count
                    for e in law.support]
        assert list(law.weights) == expected
        assert law.total == (count_extensions(g, p).unordered_count
                             * (p.M - len(g)))
        # the prefix's own family gives the same law
        own = extension_family(g, p)
        assert own.state(own.base) == law

    @pytest.mark.parametrize("nkd,edges",
                             PREFIXES + [((9, 3, 2), [(3, 4, 5)])])
    def test_listing_is_every_completion_in_lexicographic_order(self, nkd,
                                                                edges):
        # sorted, regular and as many as the counting walk finds: this pins
        # the listing to one set of rows in one order
        p = Params(*nkd)
        g = OrderedHypergraph(p.n, p.k, edges)
        fam = count_extensions(g, p, list_completions=True)
        tails = fam.completions
        assert all(a < b for a, b in zip(tails, tails[1:]))
        for tail in tails:
            assert not set(tail) & g.edge_set
            full = OrderedHypergraph(p.n, p.k, edges + list(tail))
            assert not residual_degrees(full, p).any()
        assert len(tails) == count_extensions(g, p).unordered_count

    def test_inadmissible_prefix_has_weight_zero(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3), (1, 4, 5)])
        law = extension_family(g, p).state(frozenset(g.edge_set))
        # vertex 1 is full, so every edge through it completes nothing
        through_1 = [w for e, w in zip(law.support, law.weights) if 1 in e]
        assert through_1 and not any(through_1)
        bad = with_edges(g, [(1, 2, 6)])
        fam = extension_family(empty(6, 3), p)
        assert count_extensions(bad, p).unordered_count == 0
        assert len(fam.rows_with(bad.edge_set)) == 0
        with pytest.raises(DomainError):
            fam.state(frozenset(bad.edge_set))

    def test_rows_with_matches_counter_on_every_pair(self):
        p = Params(6, 3, 2)
        fam = extension_family(empty(6, 3), p)
        for pair in combinations(combinations(range(1, 7), 3), 2):
            g = OrderedHypergraph(6, 3, pair)
            assert len(fam.rows_with(pair)) == count_extensions(
                g, p).unordered_count

    def test_family_cache_is_bounded(self):
        info = oracle._cached_family.cache_info()
        assert info.maxsize is not None and info.maxsize <= 16
        p = Params(6, 3, 2)
        for e in list(combinations(range(1, 7), 3))[:info.maxsize + 3]:
            extension_family(OrderedHypergraph(6, 3, [e]), p)
            assert oracle._cached_family.cache_info().currsize <= info.maxsize


class TestColumnReads:
    """A listed family's two reads of its column-major store,
    `with_column` and `column_sums`, agree with `holds` and with the
    unpacked tails at every pool column, on a whole family and on one
    `restrict`ed pair-degree class of it."""

    P = Params(9, 3, 2)

    def families(self):
        g = OrderedHypergraph(9, 3, [(3, 4, 5)])
        fam = extension_family(g, self.P)
        values = np.array(switching_class_sizes(g, 1, 2, "pair_degree",
                                                self.P).values)
        level = values == 1
        assert 0 < level.sum() < len(values)
        return fam, fam.restrict(level), np.flatnonzero(level)

    def test_every_read_counts_each_column_alike(self, monkeypatch):
        monkeypatch.setattr(oracle, "_SUM_ROWS", 1000)  # several chunks
        fam, level, _ = self.families()
        pool = list(combinations(range(1, 10), 3))
        for f in (fam, level):
            sums = f.column_sums()
            assert not sums[len(pool):].any()  # the padding bits are clear
            for c, e in enumerate(pool):
                held = f.with_column(c)
                assert (len(held) == sums[c] == f.holds(e).sum()
                        == (f.tails == c).any(axis=1).sum())
                assert np.array_equal(held, np.flatnonzero(f.holds(e)))
                if e not in f.base:  # base edges lie in every completion
                    assert len(f.rows_with({e})) == len(held)

    def test_restrict_selects_the_same_completions(self, monkeypatch):
        monkeypatch.setattr(oracle, "_SUM_ROWS", 1000)
        fam, level, idx = self.families()
        assert level.packed.shape == (fam.packed.shape[0], len(idx))
        every = fam.completions
        assert level.completions == [every[i] for i in idx]
        among = idx.astype(np.int32)
        assert np.array_equal(level.column_sums(), fam.column_sums(among))
        for c in range(self.P.complete_count):
            assert np.array_equal(
                idx[level.with_column(c)], fam.with_column(c, among))

    @pytest.mark.parametrize("edge", [(2, 1, 3), (1, 2, 10), (1, 2),
                                      (0, 1, 2), (1, 2, 3, 4)])
    def test_an_edge_outside_the_pool_is_named(self, edge):
        # unsorted, out of 1..n, and of the wrong size: the pool's one
        # column lookup names the edge for every read that takes one
        fam = extension_family(OrderedHypergraph(9, 3, [(3, 4, 5)]), self.P)
        reads = (lambda: fam.rows_with({edge}), lambda: fam.holds(edge),
                 lambda: fam.state(fam.base | {edge}),
                 lambda: fam.pool.column(edge))
        for read in reads:
            with pytest.raises(DomainError, match=re.escape(str(edge))):
                read()

    def test_counted_family_has_no_reads(self):
        fam = count_extensions(OrderedHypergraph(6, 3), Params(6, 3, 2))
        assert fam.packed is None and fam.completions is None
        for read in (fam.column_sums, lambda: fam.with_column(0),
                     lambda: fam.tails):
            with pytest.raises(DomainError):
                read()


class TestListingSweep:
    # (n, k, d), prefix, completions, include-children charged to the budget
    LISTINGS = [
        ((9, 3, 2), [(3, 4, 5)], 8730, 27648),
        ((7, 3, 3), [(1, 2, 3)], 2241, 12926),
        ((7, 3, 3), [], 11205, 61480),
        ((8, 2, 3), [], 19355, 106376),
    ]

    @pytest.mark.parametrize("nkd,edges,rows,nodes", LISTINGS)
    def test_listing_charges_one_node_per_include_child(self, nkd, edges,
                                                        rows, nodes,
                                                        monkeypatch):
        # pinned, so the budget a listing is charged cannot drift
        p = Params(*nkd)
        g = OrderedHypergraph(p.n, p.k, edges)
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", str(nodes))
        fam = count_extensions(g, p, list_completions=True)
        assert (fam.unordered_count, fam.nodes_used) == (rows, nodes)
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", str(nodes - 1))
        with pytest.raises(OracleBudgetError, match=f"{nodes - 1} nodes"):
            count_extensions(g, p, list_completions=True)

    @pytest.mark.parametrize("nkd,edges", [((9, 3, 2), [(3, 4, 5)]),
                                           ((8, 2, 3), [])])
    def test_small_chunks_list_the_same_rows(self, nkd, edges, monkeypatch):
        # 64 live tails a chunk: the sweep halves and sorts chunks many times
        # over, and must still list the same rows, in the same order, for
        # the same nodes
        p = Params(*nkd)
        g = OrderedHypergraph(p.n, p.k, edges)
        whole = count_extensions(g, p, list_completions=True)
        sorts = []
        real = oracle._in_order

        def spy(*args):
            sorts.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(oracle, "_SWEEP_ROWS", 64)
        monkeypatch.setattr(oracle, "_in_order", spy)
        split = count_extensions(g, p, list_completions=True)
        assert split.packed.shape == whole.packed.shape
        assert split.packed.tobytes() == whole.packed.tobytes()
        assert split.nodes_used == whole.nodes_used
        assert len(sorts) > 2 * whole.unordered_count // 128

    def test_overfull_prefix_lists_no_rows(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3), (1, 4, 5), (1, 2, 6)])
        fam = count_extensions(g, p, list_completions=True)
        assert fam.packed.shape == (math.ceil(p.complete_count / 8), 0)
        assert not fam.admissible and fam.unordered_count == 0

    def test_complete_prefix_lists_one_empty_tail(self):
        p = Params(6, 3, 2)
        full = count_extensions(empty(6, 3), p,
                                list_completions=True).completions[0]
        fam = count_extensions(OrderedHypergraph(6, 3, full), p,
                               list_completions=True)
        assert fam.packed.shape == (3, 1) and not fam.packed.any()
        assert fam.completions == [()] and fam.unordered_count == 1

    def test_unreachable_degree_lists_nothing(self):
        # d = 200 exceeds what a one-byte signed residual can hold
        g, p = OrderedHypergraph(4, 2), Params(4, 2, 200)
        assert count_extensions(g, p, list_completions=True
                                ).unordered_count == 0
        assert count_extensions(g, p).unordered_count == 0

    def test_family_is_built_through_count_extensions(self, monkeypatch):
        calls = []
        real = oracle.count_extensions

        def spy(*args, **kwargs):
            fam = real(*args, **kwargs)
            calls.append((kwargs.get("list_completions"), fam.nodes_used))
            return fam

        monkeypatch.setattr(oracle, "count_extensions", spy)
        oracle._cached_family.cache_clear()
        g, p = OrderedHypergraph(7, 3, [(1, 2, 3)]), Params(7, 3, 3)
        extension_family(g, p)
        extension_family(g, p)
        assert len(calls) == 1 and calls[0][0] is True
        nodes = calls[0][1]
        assert type(nodes) is int and nodes > 0

    def test_listing_memory_is_capped(self, monkeypatch):
        cap = 4 * 2**20
        monkeypatch.setattr(oracle, "_LIST_BYTES", cap)
        monkeypatch.delenv("HYPERCOUPLE_NODE_BUDGET", raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(OracleBudgetError, match=str(cap)):
                extension_family(empty(15, 3), Params(15, 3, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * cap


class TestCompletionCount:
    """`completion_count`, the forward pass over residual degree vectors,
    against the counting walk at every base of this file, and its four
    refusals."""

    BASES = sorted({
        ((n, k, d), ()) for (n, k, d), _ in FROZEN_COUNTS} | {
        (nkd, tuple(edges)) for nkd, edges in (
            TestFamilyAgainstCounter.PREFIXES
            + [(nkd, edges) for nkd, edges, _, _ in TestListingSweep.LISTINGS]
            + [((9, 3, 2), [(3, 4, 5)]),
               ((6, 3, 2), [(1, 2, 3), (1, 4, 5), (1, 2, 6)]),
               ((6, 2, 2), [(1, 2), (1, 3)]),
               ((9, 3, 2), [(1, 2, 3), (1, 4, 5)]),
               ((7, 3, 3), [(1, 2, 3), (4, 5, 6)]),
               ((4, 2, 2), [(1, 2), (1, 3)]),
               ((4, 2, 200), [])])})

    @pytest.mark.parametrize("nkd,edges", BASES)
    def test_equals_the_counting_walk(self, nkd, edges):
        p = Params(*nkd)
        g = OrderedHypergraph(p.n, p.k, edges)
        assert completion_count(g, p) == count_extensions(g, p).unordered_count

    @pytest.mark.parametrize("nkd,edges", TestFamilyAgainstCounter.PREFIXES)
    def test_gives_every_next_edge_weight(self, nkd, edges):
        # U(G+e) for every absent e: the exact next-edge law's weights
        p = Params(*nkd)
        g = OrderedHypergraph(p.n, p.k, edges)
        law = extension_family(g, p).state(frozenset(g.edge_set))
        assert [completion_count(with_edges(g, [e]), p)
                for e in law.support] == list(law.weights)

    def test_inadmissible_prefix_counts_zero(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3), (1, 4, 5), (1, 2, 6)])
        assert completion_count(g, p) == 0

    def test_full_prefix_counts_one(self):
        p = Params(6, 3, 2)
        full = extension_family(empty(6, 3), p).completions[0]
        assert completion_count(OrderedHypergraph(6, 3, full), p) == 1

    @pytest.mark.parametrize("nkd,u0", [((9, 3, 2), 122_220),
                                        ((12, 3, 2), 757_275_750),
                                        ((12, 2, 3), 11_555_272_575)])
    def test_frozen_family_sizes(self, nkd, u0):
        # U0 * M = C * U1: each graph counted once per edge
        p = Params(*nkd)
        u1 = completion_count(
            OrderedHypergraph(p.n, p.k, [tuple(range(1, p.k + 1))]), p)
        assert completion_count(empty(p.n, p.k), p) == u0
        assert p.complete_count * u1 == p.M * u0

    def test_int64_overflow_refuses_before_any_state(self, monkeypatch):
        # 7^60 codes: no pool is read and no state built
        def no_pool(*args):
            raise AssertionError("the pool was read")

        monkeypatch.setattr(oracle, "edge_pool", no_pool)
        with pytest.raises(OracleBudgetError, match=r"7\^60"):
            completion_count(empty(60, 3), Params(60, 3, 6))

    def test_node_budget_refusal_names_the_budget(self, monkeypatch):
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "100000")
        p = Params(15, 3, 2)
        with pytest.raises(OracleBudgetError, match="100000 nodes"):
            completion_count(OrderedHypergraph(15, 3, [(1, 2, 3)]), p)

    def test_layer_cap_refusal_names_the_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_COUNT_STATES", 100)
        with pytest.raises(OracleBudgetError, match="100 states"):
            completion_count(empty(9, 3), Params(9, 3, 2))

    @pytest.mark.parametrize("nkd", [(18, 3, 2), (24, 3, 2), (30, 3, 2),
                                     (12, 3, 4)])
    def test_past_the_layer_cap_refuses_fast(self, nkd):
        # CPU time, so a loaded machine does not fail it
        p = Params(*nkd)
        g = OrderedHypergraph(p.n, p.k, [tuple(range(1, p.k + 1))])
        start = time.process_time()
        with pytest.raises(OracleBudgetError,
                           match=f"{oracle._COUNT_STATES} states"):
            completion_count(g, p)
        assert time.process_time() - start < 1.5
