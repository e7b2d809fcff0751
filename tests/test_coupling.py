"""Joint exposure of the uniform and regular models: laws, traces, verdicts."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypercouple import (
    CouplingConfig,
    DomainError,
    OrderedHypergraph,
    Params,
    RngStream,
    accepted_size_diagnostics,
    check_near_uniformity,
    choose_epsilon,
    count_extensions,
    default_gnp_probability,
    exact_next_edge_distribution,
    is_simple,
    run_coupling,
    run_coupling_gnp,
    sample_gnm,
)
from hypercouple import coupling
from hypercouple.coupling import BRANCHES, _draw_cumulative
from hypercouple.oracle import extension_family
from hypercouple.stats import tv_distance_uniform

N6 = Params(6, 3, 2)


def cfg(params=N6, gamma=0.75, **kw):
    return CouplingConfig(params=params, gamma=gamma,
                          epsilon=choose_epsilon(params, gamma), **kw)


class TestEpsilonChoice:
    def test_largest_feasible_grid_point(self):
        # M=4, gamma=0.75 -> j = floor(4/4) = 1
        assert choose_epsilon(N6, 0.75) == 0.25
        # M=20, gamma=0.6 -> floor(20*0.2) = 4
        assert choose_epsilon(Params(30, 3, 2), 0.6) == Fraction(4, 20)

    def test_infeasible_gamma(self):
        with pytest.raises(DomainError):
            choose_epsilon(N6, 0.05)
        with pytest.raises(DomainError):
            choose_epsilon(N6, 1.0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            CouplingConfig(N6, gamma=0.75, epsilon=0.3)       # not j/M
        with pytest.raises(DomainError):
            CouplingConfig(N6, gamma=0.75, epsilon=0.5)       # > gamma/3
        with pytest.raises(DomainError):
            CouplingConfig(N6, gamma=0.7, epsilon=0.25)       # m not integral
        with pytest.raises(DomainError):
            CouplingConfig(N6, gamma=0.75, epsilon=0.25, p_mode="guess")
        c = cfg()
        assert (c.m, c.coupled_steps, c.epsilon) == (1, 3, Fraction(1, 4))

    def test_decimal_gamma_is_read_as_its_grid_point(self):
        # the CLI hands 4/7 over as the decimal 0.5714285714285714
        c = cfg(Params(7, 3, 3), 0.5714285714285714)
        assert (c.m, c.epsilon, c.coupled_steps) == (3, Fraction(1, 7), 6)


class TestExactLaw:
    def test_state_law_matches_oracle_distribution(self):
        law = extension_family(OrderedHypergraph(6, 3), N6)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        state = law.state(frozenset(g.edge_set), 1)
        oracle_law = exact_next_edge_distribution(g, N6)
        assert state.distribution() == oracle_law
        assert state.total == sum(state.weights)

    def test_min_ratio_is_worst_edge_over_uniform(self):
        law = extension_family(OrderedHypergraph(6, 3), N6)
        state = law.state(frozenset({(1, 2, 3)}), 1)
        oracle_law = exact_next_edge_distribution(
            OrderedHypergraph(6, 3, [(1, 2, 3)]), N6)
        absent = len(oracle_law)
        assert state.min_ratio == pytest.approx(
            float(min(oracle_law.values()) * absent))

    def test_near_uniformity_verdict_matches_exact_ratio(self):
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        chk = check_near_uniformity(g, 0.25, N6)
        law = exact_next_edge_distribution(g, N6)
        ratio = float(min(law.values()) * len(law))
        assert chk.certain
        assert chk.min_ratio == pytest.approx(ratio)
        assert chk.holds == (ratio >= 0.75 - 1e-12)


class TestBoundaryVerdict:
    """A least ratio exactly 1 - eps is near-uniform, in mc mode too."""

    P733 = Params(7, 3, 3)

    @pytest.fixture
    def scripted_first_edges(self, monkeypatch):
        # 245 completions at the empty prefix: the first absent edge comes
        # first 6 times, the second 8 times, the other 33 edges 7 times each,
        # so the least ratio is 6 * 35 / 245 = 6/7
        edges = list(combinations(range(1, 8), 3))
        script = [e for i, e in enumerate(edges)
                  for _ in range({0: 6, 1: 8}.get(i, 7))]
        assert len(script) == 245
        firsts = iter(script * 2)
        real = coupling.sample_regular

        def stub(G, params, gen, *args, **kw):
            if len(G) == 0:
                return [next(firsts)]
            return real(G, params, gen, *args, **kw)

        monkeypatch.setattr(coupling, "sample_regular", stub)

    @pytest.mark.parametrize("eps", [1 / 7, Fraction(1, 7)])
    def test_mc_check_holds_at_the_boundary(self, scripted_first_edges, eps):
        chk = check_near_uniformity(OrderedHypergraph(7, 3), eps, self.P733,
                                    p_mode="mc", mc_trials=245,
                                    rng=np.random.default_rng(0))
        assert chk.min_ratio == Fraction(6, 7)
        assert chk.holds and not chk.certain
        assert chk.worst_edge == (1, 2, 3)

    def test_mc_trace_verdict_holds_at_the_boundary(self,
                                                    scripted_first_edges):
        c = cfg(self.P733, Fraction(4, 7), p_mode="mc", mc_trials=245)
        tr = run_coupling(c, np.random.default_rng(0))
        assert tr.steps[0].near_uniform is True
        assert c.epsilon == Fraction(1, 7)


class TestTraces:
    def test_trace_structural_invariants(self):
        c = cfg()
        for i in range(60):
            tr = run_coupling(c, RngStream(2, (i,)))
            assert len(tr.steps) == c.params.M
            assert len(tr.regular_final) == c.params.M
            assert is_simple(tr.regular_final.edges)
            assert all(tr.regular_final.degree(v) == c.params.d
                       for v in range(1, 7))
            # uniform proposals exist exactly up to the coupled horizon
            for s in tr.steps:
                assert s.branch in BRANCHES
                if s.index < c.coupled_steps:
                    assert s.uniform_edge is not None
                else:
                    assert s.branch == "tail" and s.uniform_edge is None
            # accepted = proposals with passing coin, in order
            accepted = tuple(s.uniform_edge for s in tr.steps
                             if s.coin == 1 and s.index < c.coupled_steps)
            assert accepted == tr.accepted
            assert tr.embedded == tr.accepted[:c.m] or tr.used_fallback
            if tr.contained and not tr.used_fallback:
                assert set(tr.embedded) <= tr.regular_final.edge_set

    def test_hard_containment_implication(self):
        # complete regular family: every state is exactly uniform, so the
        # guarantee applies on every trace that accepted enough proposals
        p = Params(4, 2, 3)
        c = CouplingConfig(p, gamma=3 * choose_epsilon(p, 0.9),
                           epsilon=choose_epsilon(p, 0.9))
        hits = 0
        for i in range(150):
            tr = run_coupling(c, RngStream(3, (i,)))
            assert tr.near_uniform_all and tr.certain
            if tr.accepted_enough:
                hits += 1
                assert tr.contained
                assert not tr.used_fallback
        assert hits > 0

    def test_determinism(self):
        c = cfg()
        a = run_coupling(c, RngStream(77))
        b = run_coupling(c, RngStream(77))
        assert a.regular_final == b.regular_final
        assert a.uniform_final == b.uniform_final
        assert [s.branch for s in a.steps] == [s.branch for s in b.steps]

    def test_all_branches_reachable(self):
        p = Params(4, 2, 2)
        c = CouplingConfig(p, gamma=0.75, epsilon=0.25)
        seen = set()
        for i in range(400):
            tr = run_coupling(c, RngStream(5, (i,)))
            seen |= {s.branch for s in tr.steps}
        assert seen == set(BRANCHES)

    def test_final_regular_marginal_is_uniform(self):
        c = cfg(Params(4, 2, 2))
        counts = {}
        for i in range(2500):
            tr = run_coupling(c, RngStream(6, (i,)))
            key = tuple(sorted(tr.regular_final.edge_set))
            counts[key] = counts.get(key, 0) + 1
        fam = count_extensions(OrderedHypergraph(4, 2), c.params)
        assert len(counts) == fam.unordered_count == 3
        assert tv_distance_uniform(counts, 3) < 0.05

    def test_mc_mode_runs_and_marks_uncertain(self):
        c = cfg(p_mode="mc", mc_trials=60)
        tr = run_coupling(c, RngStream(9))
        assert not tr.certain
        assert len(tr.regular_final) == c.params.M
        assert all(tr.regular_final.degree(v) == 2 for v in range(1, 7))


class TestRandomnessStream:
    """A trace draws its proposals, then its coins, then its resolutions,
    all from the one generator it is given."""

    @pytest.mark.parametrize("params", [N6, Params(4, 2, 2)])
    def test_proposals_then_coins_from_one_generator(self, params):
        c = cfg(params)
        n, k, M, cut = params.n, params.k, params.M, c.coupled_steps
        for seed in range(5):
            g = np.random.default_rng(seed)
            g2 = np.random.default_rng(seed)
            tr = run_coupling(c, g)
            assert tr.uniform_final.edges == sample_gnm(n, k, cut, g2).edges
            coins = (g2.integers(M, size=cut) < cut).tolist()
            assert [s.coin for s in tr.steps[:cut]] == [int(x) for x in coins]

    def test_draw_reaches_the_last_unit_weight(self):
        # a float variate, even the largest double below 1, lands short of
        # the last unit weight; an integer draw below the total reaches it
        class Stub:
            def random(self):
                return np.nextafter(1.0, 0.0)

            def integers(self, high):
                return high - 1

        assert _draw_cumulative((2**60 - 1, 2**60), 2**60, Stub()) == 1


class TestAcceptedSize:
    def test_moments_against_binomial_yardstick(self):
        c = cfg()
        traces = [run_coupling(c, RngStream(4, (i,))) for i in range(1500)]
        diag = accepted_size_diagnostics(c, traces)
        assert diag.expected_mean == pytest.approx(0.75 ** 2 * 4)
        assert diag.expected_variance == pytest.approx(0.75 ** 2 * 0.25 * 4)
        assert abs(diag.mean_z) < 4.0
        assert diag.below_m_bound == pytest.approx(3 / (0.25 * 6 * 2))
        assert diag.bound_satisfied


class TestBinomialVariant:
    def test_default_probability_formula(self):
        assert default_gnp_probability(N6, 0.4) == pytest.approx(
            0.2 * 2 / 10)

    def test_default_probability_guard(self):
        c = cfg()  # gamma = 0.75 >= 1/2: default density is negative
        with pytest.raises(DomainError, match="gamma < 1/2"):
            run_coupling_gnp(c, RngStream(0))

    def test_gnp_trace_invariants(self):
        c = cfg()
        fallbacks = 0
        for i in range(200):
            tr = run_coupling_gnp(c, RngStream(7, (i,)), p=0.08)
            assert len(tr.embedded) == tr.edge_count
            assert is_simple(tr.embedded)
            if tr.independent_fallback:
                fallbacks += 1
            elif tr.contained:
                assert set(tr.embedded) <= tr.base.regular_final.edge_set
            if not tr.independent_fallback:
                # first-B prefix of the accepted proposals
                assert tr.embedded == tr.base.accepted[:tr.edge_count]
        assert 0 < fallbacks < 200

    def test_gnp_edge_count_mean(self):
        c = cfg()
        sizes = [run_coupling_gnp(c, RngStream(8, (i,)), p=0.1).edge_count
                 for i in range(1200)]
        mean = sum(sizes) / len(sizes)
        assert mean == pytest.approx(0.1 * 20, abs=0.12)
