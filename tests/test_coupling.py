"""Joint exposure of the uniform and regular models: laws, traces, verdicts."""

import pickle
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

import numpy as np
import pytest

from hypercouple import (
    CouplingConfig,
    DomainError,
    OrderedHypergraph,
    Params,
    Pcg64Stream,
    RngStream,
    accepted_size_diagnostics,
    choose_epsilon,
    count_extensions,
    default_gnp_probability,
    exact_next_edge_distribution,
    is_simple,
    run_coupling,
    run_coupling_gnp,
    sample_gnm,
)
from hypercouple import coupling, oracle
from hypercouple.coupling import BRANCHES, _draw_cumulative, coupling_step
from hypercouple.oracle import (
    PrefixTree,
    StateLaw,
    extension_family,
    prefix_tree,
)
from hypercouple.core import edge_pool
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


class TestDerivedConstants:
    """m and the horizon are derived once, at construction."""

    GRID = [Params(6, 3, 2), Params(7, 3, 3), Params(9, 3, 2),
            Params(8, 2, 3), Params(12, 3, 2), Params(60, 3, 6)]

    def test_constants_equal_the_fraction_formulas(self):
        checked = 0
        for params in self.GRID:
            M = params.M
            for i in range(1, M):
                gamma = Fraction(i, M)
                for j in range(1, M):
                    try:
                        c = CouplingConfig(params, gamma=float(gamma),
                                           epsilon=Fraction(j, M))
                    except DomainError:
                        continue
                    assert c.m == (1 - gamma) * M
                    assert c.coupled_steps == (1 - Fraction(j, M)) * M
                    assert type(c.m) is int and type(c.coupled_steps) is int
                    checked += 1
        assert checked > 100

    def test_config_pickles_compares_and_hashes_as_before(self):
        c = cfg(Params(7, 3, 3), 0.5714285714285714, mc_trials=300)
        same = cfg(Params(7, 3, 3), Fraction(4, 7), mc_trials=300)
        back = pickle.loads(pickle.dumps(c))
        assert back == c == same
        assert hash(back) == hash(c) == hash(same)
        assert (back.m, back.coupled_steps) == (c.m, c.coupled_steps)
        assert c != cfg(Params(7, 3, 3), Fraction(4, 7), p_mode="mc")
        # the derived constants stay out of equality, hashing and repr
        assert hash(c) == hash((c.params, c.gamma, c.epsilon, c.p_mode,
                                c.mc_trials))
        assert "_m=" not in repr(c) and "_coupled_steps=" not in repr(c)


class TestExactLaw:
    def test_state_law_matches_oracle_distribution(self):
        law = extension_family(OrderedHypergraph(6, 3), N6)
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        state = law.state(frozenset(g.edge_set))
        oracle_law = exact_next_edge_distribution(g, N6)
        assert state.distribution() == oracle_law
        assert state.total == sum(state.weights)

    def test_min_ratio_is_worst_edge_over_uniform(self):
        law = extension_family(OrderedHypergraph(6, 3), N6)
        state = law.state(frozenset({(1, 2, 3)}))
        oracle_law = exact_next_edge_distribution(
            OrderedHypergraph(6, 3, [(1, 2, 3)]), N6)
        absent = len(oracle_law)
        assert state.min_ratio == pytest.approx(
            float(min(oracle_law.values()) * absent))

    def test_near_uniformity_verdict_matches_exact_ratio(self):
        g = OrderedHypergraph(6, 3, [(1, 2, 3)])
        fam = extension_family(g, N6)
        state = fam.state(fam.base)
        law = exact_next_edge_distribution(g, N6)
        ratio = min(law.values()) * len(law)
        assert state.min_ratio == ratio
        assert state.near_uniform(Fraction(1, 4)) == (ratio >= Fraction(3, 4))


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

    @pytest.mark.parametrize("gamma", [0.5714285714285714, Fraction(4, 7)],
                             ids=["float", "fraction"])
    def test_mc_trace_verdict_holds_at_the_boundary(self,
                                                    scripted_first_edges,
                                                    gamma):
        c = cfg(self.P733, gamma, p_mode="mc", mc_trials=245)
        tr = run_coupling(c, RngStream(0))
        assert tr.steps[0].near_uniform is True
        assert c.epsilon == Fraction(1, 7)
        assert not tr.certain


def _all_state_laws(params):
    """The exact next-edge law at every prefix state of the family, with
    the state as pool column indices.  Read off the listed completions:
    state S's weight at e counts the completions through S + e."""
    fam = extension_family(OrderedHypergraph(params.n, params.k), params)
    pool = list(combinations(range(1, params.n + 1), params.k))
    column = {e: c for c, e in enumerate(pool)}
    tails = np.array([[column[e] for e in tail] for tail in fam.completions])
    M = params.M
    for t in range(M):
        picks = list(combinations(range(M), t))
        keys = np.concatenate([tails[:, list(p)] for p in picks])
        rest = np.concatenate([np.delete(tails, list(p), axis=1)
                               for p in picks])
        codes = keys @ (len(pool) ** np.arange(t, dtype=np.int64))
        _, first, inv = np.unique(codes, return_index=True,
                                  return_inverse=True)
        states = keys[first]
        W = np.zeros((len(states), len(pool)), dtype=np.int64)
        np.add.at(W, (np.repeat(inv.reshape(-1), M - t), rest.reshape(-1)), 1)
        free = np.ones(W.shape, dtype=bool)
        free[np.arange(len(states))[:, None], states] = False
        cols = np.broadcast_to(np.arange(len(pool)), W.shape)[free]
        for key, c, w in zip(states.tolist(),
                             cols.reshape(len(states), -1).tolist(),
                             W[free].reshape(len(states), -1).tolist()):
            yield key, StateLaw.from_weights(itemgetter(*c)(pool), tuple(w),
                                             sum(w))


class TestIntegerVerdict:
    """near_uniform is min_ratio >= 1 - eps as one integer comparison, and
    the memoised excess cumulative is the excess law."""

    @staticmethod
    def feasible_epsilons(params):
        # eps = j/M <= gamma/3 with (1-gamma)M a positive integer
        return [Fraction(j, params.M) for j in range(1, params.M)
                if 3 * j <= params.M - 1]

    @staticmethod
    def check(law, eps, keep, undefined_excess=True):
        verdict = law.near_uniform(eps)
        assert verdict == (law.min_ratio >= keep)
        if verdict:
            memo = law.excess(eps)
            assert law.excess(eps) is memo
            fresh = StateLaw.from_weights(law.support, law.weights, law.total)
            assert fresh.excess(eps) == memo
            # the excess law (p - (1-eps) * uniform) / eps, as Fractions
            cumulative, total = memo
            uniform = Fraction(1, len(law.support))
            for w, c, prev in zip(law.weights, cumulative, (0,) + cumulative):
                assert Fraction(c - prev, total) == (
                    Fraction(w, law.total) - keep * uniform) / eps
        elif undefined_excess:
            with pytest.raises(DomainError):
                law.excess(eps)
        return verdict

    @pytest.mark.parametrize("params,states,near", [
        (Params(6, 3, 2), 511, 11), (Params(7, 3, 3), 231911, 72)])
    def test_every_state_every_feasible_epsilon(self, params, states, near):
        fam = extension_family(OrderedHypergraph(params.n, params.k), params)
        epsilons = [(eps, 1 - eps) for eps in self.feasible_epsilons(params)]
        seen = holds = 0
        pool = list(combinations(range(1, params.n + 1), params.k))
        for key, law in _all_state_laws(params):
            shallow = len(key) <= 1
            if shallow:  # tie the listing above to the family's laws
                edges = frozenset(pool[i] for i in key)
                assert law == fam.state(edges)
            for eps, keep in epsilons:
                holds += self.check(law, eps, keep, undefined_excess=shallow)
            seen += 1
        assert (seen, holds) == (states, near)

    def test_equality_boundary(self):
        # TestBoundaryVerdict's law: least ratio exactly 6/7 = 1 - 1/7
        support = tuple(combinations(range(1, 8), 3))
        weights = (6, 8) + (7,) * 33
        law = StateLaw.from_weights(support, weights, 245)
        assert law.min_ratio == Fraction(6, 7)
        assert self.check(law, Fraction(1, 7), Fraction(6, 7))
        below = StateLaw.from_weights(support, (6, 9) + (7,) * 32 + (6,), 245)
        assert not self.check(below, Fraction(1, 8), Fraction(7, 8))


def _walk(tree, edges):
    """The tree node reached by exposing `edges` in the given order."""
    node = tree.root
    for e in edges:
        node = tree.child(node, e)
    return node


class TestPrefixTree:
    """The tree reads every law off the completions through (1..k); each
    must equal the empty-prefix family's law at the same state."""

    P733 = Params(7, 3, 3)

    def test_every_state_of_632_in_two_orders(self):
        pool = list(combinations(range(1, 7), 3))
        # increasing order relabels through the least edge, decreasing
        # through the greatest, so each state is reached in two frames
        up, down = PrefixTree(N6), PrefixTree(N6)
        seen = 0
        for key, law in _all_state_laws(N6):
            edges = [pool[c] for c in key]
            assert _walk(up, edges).law == law
            assert _walk(down, edges[::-1]).law == law
            seen += 1
        assert seen == 511

    def test_every_fiftieth_state_of_733(self):
        pool = list(combinations(range(1, 8), 3))
        up, down = PrefixTree(self.P733), PrefixTree(self.P733)
        seen = 0
        for i, (key, law) in enumerate(_all_state_laws(self.P733)):
            if i % 50:
                continue
            edges = [pool[c] for c in key]
            assert _walk(up, edges).law == law
            assert _walk(down, edges[::-1]).law == law
            seen += 1
        assert seen >= 4000

    @pytest.mark.parametrize("nkd", [(6, 3, 2), (7, 3, 3), (8, 2, 3),
                                     (9, 3, 2), (8, 4, 2)])
    def test_family_size_is_c_u1_over_m(self, nkd):
        # U0 * M = C * U1, both sides counted by the focus backtracker
        p = Params(*nkd)
        first = OrderedHypergraph(p.n, p.k, [tuple(range(1, p.k + 1))])
        u1 = count_extensions(first, p).unordered_count
        u0 = count_extensions(OrderedHypergraph(p.n, p.k), p).unordered_count
        C = p.complete_count
        assert u0 * p.M == C * u1
        tree = PrefixTree(p)
        assert tree.family_size == u0
        pool = tuple(combinations(range(1, p.n + 1), p.k))
        assert tree.root.law == StateLaw.from_weights(pool, (u1,) * C,
                                                      u0 * p.M)

    @pytest.mark.parametrize("nkd", [(7, 3, 3), (8, 2, 3)])
    def test_frame_relabels_every_pool_edge(self, nkd):
        # reference: relabel each pool edge f through σ_e^{-1} and look the
        # sorted image up in a dict of the pool
        p = Params(*nkd)
        pool = list(combinations(range(1, p.n + 1), p.k))
        column = {f: c for c, f in enumerate(pool)}
        tree = PrefixTree(p)
        for e in pool:
            order = e + tuple(v for v in range(1, p.n + 1) if v not in e)
            label = dict(zip(order, range(1, p.n + 1)))
            assert tree._frame(e).tolist() == [
                column[tuple(sorted(label[v] for v in f))] for f in pool]

    def test_orders_of_one_state_share_a_node(self):
        tree = PrefixTree(self.P733)
        a, b, c = (1, 2, 3), (4, 5, 6), (1, 4, 7)
        node = _walk(tree, [a, b, c])
        assert _walk(tree, [c, a, b]) is node
        assert _walk(tree, [b, c, a]) is node
        assert tree.child(_walk(tree, [a, b]), c) is node

    def test_child_rejects_a_present_edge_the_last_step_no_family(self):
        tree = PrefixTree(N6)
        node = tree.child(tree.root, (1, 2, 3))
        with pytest.raises(DomainError):
            tree.child(node, (1, 2, 3))
        full = count_extensions(OrderedHypergraph(6, 3), N6,
                                list_completions=True).completions[0]
        node = _walk(tree, full[:-1])
        with pytest.raises(DomainError):
            tree.child(node, full[-1])
        with pytest.raises(DomainError):  # no 200-regular graph on 4 vertices
            PrefixTree(Params(4, 2, 200))

    def test_tree_reads_its_laws_from_its_family(self, monkeypatch):
        tree = PrefixTree(self.P733)
        fam = tree.family
        assert type(fam) is oracle.ExtensionFamily
        assert fam.base == {(1, 2, 3)} and fam.packed is not None
        # the family's store is the only copy of the completions
        assert not any(isinstance(v, np.ndarray) and v.dtype == np.uint8
                       for v in vars(tree).values())
        edges = [(1, 4, 5), (2, 4, 6), (3, 6, 7)]
        law = extension_family(OrderedHypergraph(7, 3), self.P733).state(
            frozenset(edges))
        reads = []
        for name in ("with_column", "column_sums"):
            real = getattr(oracle.ExtensionFamily, name)

            def spy(self, *args, _name=name, _real=real, **kw):
                assert self is fam
                reads.append(_name)
                return _real(self, *args, **kw)

            monkeypatch.setattr(oracle.ExtensionFamily, name, spy)
        assert _walk(tree, edges).law == law
        # the first edge reuses the first sums; each later one filters once
        assert reads == ["with_column", "column_sums"] * 2

    def test_tree_is_cached_per_params(self):
        assert prefix_tree(N6) is prefix_tree(N6)
        info = oracle.prefix_tree.cache_info()
        assert info.maxsize is not None and info.maxsize <= 4

    @pytest.mark.parametrize("row_bytes,weights", [
        (1024, None), (None, 64), (0, 0)])
    def test_small_caps_keep_every_law_of_couple_cold_traces(
            self, monkeypatch, row_bytes, weights):
        c = cfg(self.P733, Fraction(4, 7))
        fam = extension_family(OrderedHypergraph(7, 3), self.P733)
        oracle.prefix_tree.cache_clear()
        traces = [run_coupling(c, RngStream(71, (i,))) for i in range(8)]
        reference = prefix_tree(self.P733)
        if row_bytes is not None:
            monkeypatch.setattr(oracle, "_TREE_ROW_BYTES", row_bytes)
        if weights is not None:
            monkeypatch.setattr(oracle, "_TREE_WEIGHTS", weights)
        refiltered = []
        real_rows = PrefixTree._rows

        def spy(self, node):
            refiltered.append(node.rows is None and bool(node.cols))
            return real_rows(self, node)

        monkeypatch.setattr(PrefixTree, "_rows", spy)
        oracle.prefix_tree.cache_clear()
        tree = prefix_tree(self.P733)
        for i, tr in enumerate(traces):
            again = run_coupling(c, RngStream(71, (i,)))
            assert again.steps == tr.steps
            assert again.regular_final == tr.regular_final
            order = tr.regular_final.edges
            node, ref = tree.root, reference.root
            for t in range(self.P733.M):
                assert node.law == ref.law == fam.state(
                    frozenset(order[:t]))
                if t + 1 < self.P733.M:
                    node = tree.child(node, order[t])
                    ref = reference.child(ref, order[t])
        if row_bytes is not None:
            assert any(refiltered)  # some node lost its rows and refiltered
            assert tree._held_bytes <= row_bytes
        if weights is not None:
            # cut back to the root whenever one more law would pass the cap
            assert tree._weights <= max(weights, self.P733.complete_count)
        oracle.prefix_tree.cache_clear()


class TestLocalIdentity:
    """At every coupled step of sampled traces, the edge `coupling_step`
    exposes has the law of the regular side's state: coin 1 weighs
    (1 - eps), coin 0 eps, and each of the C - t proposals outside U weighs
    1/(C - t)."""

    @staticmethod
    def exposed_law(law, eps, regular_set, proposals, t, pool):
        """The exposed edge's exact law over every proposal outside U and
        both coins, and the set of branches taken."""
        outside = [e for e in pool if e not in set(proposals[:t])]
        assert len(outside) == len(pool) - t
        exposed = {}
        draws = {}  # each integer law drawn from, with its total weight
        branches = set()
        for coin, weight in ((1, 1 - eps), (0, eps)):
            weight /= len(outside)
            for proposal in outside:
                near, branch, edge, draw = coupling_step(
                    law, eps, proposal, coin, regular_set, proposals, t)
                assert near == law.near_uniform(eps)
                branches.add(branch)
                if edge is None:
                    draws[draw] = draws.get(draw, 0) + weight
                else:
                    exposed[edge] = exposed.get(edge, 0) + weight
        for (cumulative, total), weight in draws.items():
            for e, c, prev in zip(law.support, cumulative, (0,) + cumulative):
                exposed[e] = exposed.get(e, 0) + weight * Fraction(c - prev,
                                                                   total)
        return exposed, branches

    # these (7,3,3) traces are near-uniform only at the empty prefix, where
    # R = U = {}, so no proposal there is mapped
    @pytest.mark.parametrize("params,gamma,traces,pairs,near,mapped", [
        (N6, Fraction(3, 4), 300, 900, 347, True),
        (Params(7, 3, 3), Fraction(4, 7), 200, 1200, 200, False),
        (Params(9, 3, 2), Fraction(1, 2), 100, 500, 106, True),
        (Params(8, 2, 3), Fraction(1, 2), 100, 1000, 103, True)])
    def test_exposed_edge_law_is_the_state_law(self, params, gamma, traces,
                                               pairs, near, mapped):
        c = cfg(params, gamma)
        eps, tree = c.epsilon, prefix_tree(params)
        pool = edge_pool(params.n, params.k).edges
        seen_pairs = seen_near = 0
        branches = set()
        for rng in RngStream.trials(23, traces):
            tr = run_coupling(c, rng)
            order, proposals = tr.regular_final.edges, tr.uniform_final.edges
            node = tree.root
            for t in range(c.coupled_steps):
                regular_set = set(order[:t])
                law, step = node.law, tr.steps[t]
                # the trace's own step is this resolution
                near_t, branch, edge, _ = coupling_step(
                    law, eps, step.uniform_edge, step.coin, regular_set,
                    proposals, t)
                assert (near_t, branch) == (step.near_uniform, step.branch)
                assert edge in (None, step.exposed_edge)
                exposed, taken = self.exposed_law(law, eps, regular_set,
                                                  proposals, t, pool)
                assert set(exposed) <= set(law.support)
                assert {e: exposed.get(e, 0)
                        for e in law.support} == law.distribution()
                branches |= taken
                seen_pairs += 1
                seen_near += near_t
                node = tree.child(node, order[t])
        assert (seen_pairs, seen_near) == (pairs, near)
        assert branches == {"fresh", "excess", "direct"} | (
            {"mapped"} if mapped else set())


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

    @pytest.mark.parametrize("params,gamma", [
        (N6, 0.75), (Params(7, 3, 3), 0.5714285714285714),
        (Params(4, 2, 2), 0.75)])
    def test_regular_final_equals_the_public_rebuild(self, params, gamma):
        c = cfg(params, gamma)
        for i in range(20):
            final = run_coupling(c, RngStream(12, (i,))).regular_final
            assert final == OrderedHypergraph(params.n, params.k,
                                              list(final.edges))
            assert final.edge_set == set(final.edges)

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
            g = Pcg64Stream.of(RngStream(seed))
            g2 = Pcg64Stream.of(RngStream(seed))
            tr = run_coupling(c, g)
            assert tr.uniform_final.edges == sample_gnm(n, k, cut, g2).edges
            coins = [int(x < cut) for x in g2.integers(M, size=cut)]
            assert [s.coin for s in tr.steps[:cut]] == coins

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
