"""Edge-exposure trajectories and the replacement-switch probe."""

import math

import numpy as np
import pytest

from hypercouple import (
    DomainError,
    OrderedHypergraph,
    Params,
    Pcg64Stream,
    RngStream,
    count_extensions,
    exact_simplicity_probability,
    expose_process,
    mutual_simplicity_probe,
    residual_report,
    sample_mutual_pair,
)
from hypercouple.process import _switch_once  # noqa: F401 (reachability)

N9 = Params(9, 3, 2)


class TestExposure:
    def test_residual_trajectory_shape_and_boundaries(self):
        tr = expose_process(N9, RngStream(1))
        res = tr.residuals
        assert res.shape == (N9.M + 1, 9)
        assert (res[0] == 2).all()
        assert (res[-1] == 0).all()
        # exposing one edge lowers exactly k residuals by one
        for t in range(N9.M):
            assert (res[t] - res[t + 1]).sum() == 3
            assert set(np.unique(res[t] - res[t + 1])) <= {0, 1}

    def test_row_sums_are_deterministic(self):
        tr = expose_process(N9, RngStream(2))
        for t in range(N9.M + 1):
            assert tr.residuals[t].sum() == 3 * (N9.M - t)

    def test_graph_matches_trajectory(self):
        tr = expose_process(N9, RngStream(3))
        assert len(tr.graph) == N9.M
        assert all(tr.graph.degree(v) == 2 for v in range(1, 10))

    @pytest.mark.parametrize("params", [Params(60, 3, 6), N9,
                                        Params(12, 2, 3), Params(6, 3, 2)])
    def test_residuals_match_per_edge_loop(self, params):
        # reference: lower each vertex of the t-th edge, one edge at a time
        for seed in range(3):
            tr = expose_process(params, RngStream(seed))
            row = np.full(params.n, params.d, dtype=np.int64)
            expected = [row.copy()]
            for e in tr.graph.edges:
                for v in e:
                    row[v - 1] -= 1
                expected.append(row.copy())
            assert tr.residuals.dtype == np.int64
            assert np.array_equal(tr.residuals, np.array(expected))


class TestResidualReport:
    def test_exact_moments_and_empirical_agreement(self):
        rep = residual_report(N9, 600, RngStream(4))
        M = N9.M
        for t in (0, M):
            assert rep.exact_var[t] == 0
        # hypergeometric moments: mean tau*d, variance via sampling fraction
        t = M // 2
        tau = (M - t) / M
        assert rep.exact_mean[t] == pytest.approx(tau * 2)
        assert rep.exact_var[t] == pytest.approx(
            t * (2 / M) * (1 - 2 / M) * (M - t) / (M - 1))
        assert rep.max_abs_mean_z() < 4.5

    def test_default_envelope_never_trips_at_desk_scale(self):
        # width sqrt(3*(k+2) * tau * d * log n) exceeds every attainable
        # deviation for these sizes; a regression guard, not a theorem
        rep = residual_report(N9, 300, RngStream(5))
        assert rep.a == 15.0
        assert rep.overall_exceed_rate == 0.0

    def test_tight_envelope_does_trip(self):
        rep = residual_report(N9, 300, RngStream(5), a=0.05)
        assert rep.overall_exceed_rate > 0.0

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(DomainError):
            residual_report(N9, 0, RngStream(0))

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
    def test_rejects_a_nonpositive_envelope_constant(self, a):
        with pytest.raises(DomainError, match="must be positive"):
            residual_report(N9, 1, RngStream(0), a=a)

    def test_z_scores_follow_the_per_step_formula(self):
        rep = residual_report(N9, 40, RngStream(7))
        z = rep.z_scores()
        assert z.shape == (N9.M + 1, N9.n)
        assert not z[0].any() and not z[N9.M].any()
        for t in range(1, N9.M):
            tau = (N9.M - t) / N9.M
            var = t * (2 / N9.M) * (1 - 2 / N9.M) * (N9.M - t) / (N9.M - 1)
            for v in range(1, N9.n + 1):
                want = (rep.emp_mean[t, v - 1] - tau * 2) / math.sqrt(var / 40)
                assert z[t, v - 1] == pytest.approx(want, rel=1e-12)
                assert rep.mean_z(t, v) == z[t, v - 1]
        assert rep.max_abs_mean_z() == np.abs(z).max()

    def test_trial_reports_add_up_to_the_joint_report(self):
        joint = residual_report(N9, 3, RngStream(8))
        stream = Pcg64Stream.of(RngStream(8))
        parts = [residual_report(N9, 1, stream) for _ in range(3)]
        summed = parts[0] + parts[1] + parts[2]
        assert summed.trials == 3 and summed.a == joint.a
        assert np.array_equal(summed.residual_sum, joint.residual_sum)
        assert np.array_equal(summed.exceed_sum, joint.exceed_sum)
        assert np.array_equal(summed.z_scores(), joint.z_scores())

    def test_reports_on_different_instances_do_not_add(self):
        rep = residual_report(N9, 1, RngStream(0))
        with pytest.raises(DomainError):
            rep + residual_report(N9, 1, RngStream(0), a=1.0)
        with pytest.raises(DomainError):
            rep + residual_report(Params(6, 3, 2), 1, RngStream(0))


class TestMutualPair:
    def test_joint_marginals_match_exact_probabilities(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        e, f = (1, 4, 5), (4, 5, 6)
        pe = exact_simplicity_probability(
            OrderedHypergraph(6, 3, [(1, 2, 3), e]), p)
        pf = exact_simplicity_probability(
            OrderedHypergraph(6, 3, [(1, 2, 3), f]), p)
        hit_e = hit_f = used = 0
        for i in range(4000):
            s = sample_mutual_pair(g, e, f, p, RngStream(6, (i,)))
            if s.degenerate:
                continue
            used += 1
            hit_e += s.e_simple
            hit_f += s.f_simple
        assert used > 3500
        assert hit_e / used == pytest.approx(float(pe), abs=0.04)
        assert hit_f / used == pytest.approx(float(pf), abs=0.04)

    def test_identical_edges_always_agree(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3)
        for i in range(50):
            s = sample_mutual_pair(g, (1, 2, 3), (1, 2, 3), p, RngStream(7, (i,)))
            assert s.degenerate or s.e_simple == s.f_simple

    def test_rejects_present_edges(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        with pytest.raises(DomainError):
            sample_mutual_pair(g, (1, 2, 3), (4, 5, 6), p, RngStream(0))


class TestSimplicityProbe:
    def test_report_accounting_and_event_domination(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        rep = mutual_simplicity_probe(g, (1, 4, 5), (4, 5, 6), p, 1500,
                                      RngStream(8))
        assert rep.s == 1
        assert rep.effective == rep.trials - rep.degenerate
        assert rep.nice_count <= rep.effective
        assert rep.simple_nice_count <= rep.simple_count <= rep.effective
        rates = rep.event_rates()
        assert set(rates) == {"coincide", "loop", "collision",
                              "pair_collision", "resurrect"}
        # each recorded bound expression dominates its event frequency
        # (up to sampling error at this trial count)
        assert rates["coincide"] <= rep.e1_bound_mean + 0.05
        assert rates["loop"] <= rep.e2_bound_mean + 0.05
        assert rates["collision"] <= rep.e3_bound_mean + 0.05
        assert rates["pair_collision"] <= rep.e4_bound_mean + 0.05

    def test_equal_edges_probe_is_all_simple_or_not_jointly(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3)
        rep = mutual_simplicity_probe(g, (1, 2, 3), (1, 2, 3), p, 300,
                                      RngStream(9))
        assert rep.s == 0
        # switch is the identity: niceness failures aside, simplicity of the
        # source is simplicity of the target
        assert rep.e1_count == rep.e2_count == rep.e3_count == 0

    def test_threshold_scales(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        rep = mutual_simplicity_probe(g, (1, 4, 5), (4, 5, 6), p, 50,
                                      RngStream(10), c1=2.0, c2=3.0)
        t = len(g) + 1
        tau = (p.M - t) / p.M
        assert rep.ell1 == pytest.approx(2.0 * tau * p.d / p.n)
        assert rep.ell2 == pytest.approx(3.0 * tau * p.d ** 2 / p.n ** 2)
