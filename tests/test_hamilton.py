"""Overlapping cycle certificates, exhaustive search, and the naive cross-check."""

import itertools

import pytest

from hypercouple import (
    FOUND,
    NONE,
    UNKNOWN,
    CycleCertificate,
    DomainError,
    Hypergraph,
    Params,
    Pcg64Stream,
    RngStream,
    cycle_edges,
    find_hamilton_cycle,
    hamiltonicity_sweep,
    naive_hamiltonian,
    sample_regular,
    verify_cycle,
)
from hypercouple import hamilton
from hypercouple.core import OrderedHypergraph


def tight6():
    order = (1, 2, 3, 4, 5, 6)
    return Hypergraph(6, 3, cycle_edges(order, 3, 2)), order


class TestCycleEdges:
    def test_window_structure(self):
        edges = cycle_edges((1, 2, 3, 4, 5, 6), 3, 2)
        # stride 1: six consecutive windows around the cycle
        assert len(edges) == 6
        assert (1, 2, 3) in edges and (1, 5, 6) in edges

    def test_loose_cycle_stride(self):
        edges = cycle_edges((1, 2, 3, 4, 5, 6, 7, 8), 3, 1)
        # stride 2: windows start at even offsets only
        assert len(edges) == 4
        assert (1, 2, 3) in edges and (3, 4, 5) in edges

    def test_edge_count_is_n_over_stride(self):
        for n, k, ell in [(6, 3, 2), (8, 3, 1), (12, 4, 2), (10, 5, 3)]:
            order = tuple(range(1, n + 1))
            assert len(cycle_edges(order, k, ell)) == n // (k - ell)


class TestCertificates:
    def test_validation(self):
        with pytest.raises(DomainError):
            CycleCertificate((1, 2, 3, 4, 5, 6), 3, 3)      # ell = k
        with pytest.raises(DomainError):
            CycleCertificate((1, 2, 3, 4, 5), 3, 1)         # stride 2, 5 odd
        with pytest.raises(DomainError):
            CycleCertificate((1, 2, 2, 4, 5, 6), 3, 2)      # not a permutation
        with pytest.raises(DomainError):
            CycleCertificate((1, 2, 3), 3, 1)               # n < 2k - ell

    def test_rotation_and_reflection_equivalence(self):
        base = CycleCertificate((1, 2, 3, 4, 5, 6), 3, 2)
        rotated = CycleCertificate((3, 4, 5, 6, 1, 2), 3, 2)
        reflected = CycleCertificate((6, 5, 4, 3, 2, 1), 3, 2)
        assert base.equivalent(rotated)
        assert base.equivalent(reflected)
        assert base.canonical_key() == rotated.canonical_key()
        assert base.canonical_key() == reflected.canonical_key()

    def test_reordering_within_stride_is_not_equivalent(self):
        base = CycleCertificate((1, 2, 3, 4, 5, 6), 3, 2)
        swapped = CycleCertificate((2, 1, 3, 4, 5, 6), 3, 2)
        assert not base.equivalent(swapped)

    def test_same_window_family_means_same_edges(self):
        base = CycleCertificate((1, 2, 3, 4, 5, 6), 3, 2)
        rotated = CycleCertificate((2, 3, 4, 5, 6, 1), 3, 2)
        assert set(base.edges()) == set(rotated.edges())


class TestVerification:
    def test_verify_accepts_contained_cycle(self):
        h, order = tight6()
        cert = CycleCertificate(order, 3, 2)
        assert verify_cycle(h, cert)

    def test_verify_rejects_missing_window(self):
        h, order = tight6()
        h.discard_edge((1, 2, 3))
        assert not verify_cycle(h, CycleCertificate(order, 3, 2))

    def test_verify_checks_shape_compatibility(self):
        h, order = tight6()
        with pytest.raises(DomainError):
            verify_cycle(Hypergraph(7, 3), CycleCertificate(order, 3, 2))


class TestSearch:
    def test_finds_planted_cycle(self):
        h, order = tight6()
        res = find_hamilton_cycle(h, 2)
        assert res.status == FOUND
        assert verify_cycle(h, res.certificate)

    def test_tight_cycle_graph_minus_any_edge_has_none(self):
        h, order = tight6()
        for e in list(h.edge_set):
            g = h.copy()
            g.discard_edge(e)
            assert find_hamilton_cycle(g, 2).status == NONE

    def test_complete_graph_has_every_overlap(self):
        h = Hypergraph(6, 3).complete(6, 3)
        for ell in (1, 2):
            if (3 - ell) and 6 % (3 - ell) == 0:
                assert find_hamilton_cycle(h, ell).status == FOUND

    def test_budget_exhaustion_is_unknown(self):
        h = Hypergraph(8, 3).complete(8, 3)
        res = find_hamilton_cycle(h, 2, budget=1)
        assert res.status == UNKNOWN
        assert not res.decided

    def test_stride_divisibility_guard(self):
        h = Hypergraph(7, 3).complete(7, 3)
        with pytest.raises(DomainError):
            find_hamilton_cycle(h, 1)   # stride 2 does not divide 7

    def test_agrees_with_naive_oracle_on_random_instances(self):
        p = Params(6, 3, 3)
        stream = Pcg64Stream.of(RngStream(12))
        decided = found = 0
        for _ in range(40):
            g = sample_regular(OrderedHypergraph(6, 3), p,
                               stream).as_hypergraph()
            res = find_hamilton_cycle(g, 2)
            assert res.decided
            naive = naive_hamiltonian(g, 2)
            assert (res.status == FOUND) == naive
            decided += 1
            found += res.status == FOUND
        assert decided == 40 and 0 < found

    def test_agreement_on_sparse_instances_including_loose(self):
        stream = Pcg64Stream.of(RngStream(13))
        for ell, n, k, d in [(1, 6, 3, 2), (2, 6, 3, 2)]:
            p = Params(n, k, d)
            for _ in range(15):
                g = sample_regular(OrderedHypergraph(n, k), p,
                                   stream).as_hypergraph()
                res = find_hamilton_cycle(g, ell)
                assert (res.status == FOUND) == naive_hamiltonian(g, ell)


class TestSweep:
    def test_transition_shape_and_interval_fields(self):
        pts = hamiltonicity_sweep(8, 3, 2, [3, 15, 21], 15, RngStream(14))
        assert [p.d for p in pts] == [3, 15, 21]
        for p in pts:
            assert p.found + p.none + p.unknown == p.trials == 15
            assert 0.0 <= p.ci_lo <= p.p_hat <= p.ci_hi <= 1.0
        assert pts[0].p_hat < 0.2
        assert pts[-1].p_hat > 0.9

    def test_trial_i_draws_the_stream_of_child_d_i(self, monkeypatch):
        # the bulk seeding below a nested path gives each trial the stream
        # rng.child(d, i), as seeding every trial on its own does
        rng = RngStream(16, (2, 5))
        drawn = []

        def spy(G, params, gen):
            drawn.append(sample_regular(G, params, gen))
            return drawn[-1]

        monkeypatch.setattr(hamilton, "sample_regular", spy)
        hamiltonicity_sweep(8, 2, 1, [2, 3], 6, rng)
        assert drawn == [
            sample_regular(OrderedHypergraph(8, 2), Params(8, 2, d),
                           rng.child(d, i))
            for d in (2, 3) for i in range(6)]

    def test_only_an_rng_stream_seeds_a_sweep(self):
        # a shared Generator would hand every trial one running stream
        with pytest.raises(DomainError, match="RngStream"):
            hamiltonicity_sweep(8, 2, 1, [2], 3, RngStream(1).generator())

    def test_budget_starved_sweep_reports_unknown(self):
        pts = hamiltonicity_sweep(8, 3, 2, [15], 5, RngStream(15), budget=1)
        assert pts[0].unknown == 5
