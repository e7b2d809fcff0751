"""Acceptance gate: ten criteria, each printing one pass/fail line.

Statistical criteria run at frozen seeds, so every threshold below is a
deterministic regression check; thresholds and runtime budgets are part of
the contract.  Shared heavyweight work (the 10^5-trace coupling pool) is
built once and reused by criteria 4, 5 and 6.
"""

import hashlib
import math
import os
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from hypercouple import (
    CouplingConfig,
    ExperimentConfig,
    FOUND,
    Hypergraph,
    OrderedHypergraph,
    Params,
    Pcg64Stream,
    RngStream,
    choose_epsilon,
    codegree_rel,
    count_extensions,
    exact_simplicity_probability,
    find_hamilton_cycle,
    focus_count,
    hamiltonicity_sweep,
    naive_hamiltonian,
    residual_report,
    run_coupling,
    run_experiment,
    sample_gnm,
    sample_regular,
    switching_class_sizes,
    verify_cycle,
    verify_ratio_identity,
)
from hypercouple.oracle import extension_family
from hypercouple.switchings import backward_counts, forward_counts
from hypercouple.stats import tv_distance_uniform

from conftest import record_criterion

N6 = Params(6, 3, 2)


@pytest.fixture(scope="module")
def coupling_pool():
    """10^5 traces at (6,3,2) plus auxiliary instances where the
    near-uniformity event actually fires, reduced to compact aggregates."""
    t0 = time.monotonic()
    cfg = CouplingConfig(N6, gamma=0.75, epsilon=0.25)
    final_counts = Counter()
    state_next = defaultdict(Counter)
    sizes = np.empty(100_000, dtype=np.int64)
    antecedent = contained = 0
    for i, rng in enumerate(RngStream.trials(1000, 100_000)):
        tr = run_coupling(cfg, rng)
        final_counts[tuple(sorted(tr.regular_final.edge_set))] += 1
        sizes[i] = len(tr.accepted)
        exposed = tr.regular_final.edges
        for s in tr.steps:
            state_next[(s.index, frozenset(exposed[:s.index]))][
                s.exposed_edge] += 1
        if tr.near_uniform_all and tr.accepted_enough:
            antecedent += 1
            contained += tr.contained
    # instances whose exact next-edge law is often (or always) near uniform,
    # so the containment guarantee is exercised, not vacuous
    aux = [(Params(4, 2, 3), Fraction(1, 2)), (Params(4, 2, 2), 0.75)]
    for j, (params, gamma) in enumerate(aux):
        c = CouplingConfig(params, gamma=gamma,
                           epsilon=choose_epsilon(params, gamma))
        for rng in RngStream.trials(2000 + j, 2000):
            tr = run_coupling(c, rng)
            if tr.near_uniform_all and tr.accepted_enough:
                antecedent += 1
                contained += tr.contained
    return {
        "config": cfg,
        "final_counts": final_counts,
        "state_next": state_next,
        "sizes": sizes,
        "antecedent": antecedent,
        "contained": contained,
        "build_seconds": time.monotonic() - t0,
    }


def test_criterion_01_exact_oracle_fixtures():
    t0 = time.monotonic()
    # the backtracking reference, against frozen counts and the listing
    tiny = focus_count(OrderedHypergraph(4, 2), Params(4, 2, 1))
    none = focus_count(OrderedHypergraph(2, 2), Params(2, 2, 2))
    u0 = focus_count(OrderedHypergraph(6, 3), N6)
    fam = count_extensions(OrderedHypergraph(6, 3), N6)
    # configuration identity ties the two independent enumerators together
    ps = exact_simplicity_probability(OrderedHypergraph(6, 3), N6)
    n_seq = Fraction(math.factorial(12), math.factorial(2) ** 6)
    identity = (ps * n_seq ==
                u0 * math.factorial(4) * math.factorial(3) ** 4)
    elapsed = time.monotonic() - t0
    ok = ((tiny * math.factorial(2), tiny) == (6, 3)
          and none == 0
          and (u0, u0 * math.factorial(4)) == (75, 1800)
          and (fam.unordered_count, fam.ordered_count) == (75, 1800)
          and identity and elapsed < 10.0)
    record_criterion(1, ok, f"counts 6/3, 0, 75/1800; configuration identity "
                            f"exact; {elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_02_sampler_uniformity():
    t0 = time.monotonic()
    stream = Pcg64Stream.of(RngStream(500))
    counts = Counter()
    trials = 100_000
    for _ in range(trials):
        g = sample_regular(OrderedHypergraph(6, 3), N6, stream)
        counts[tuple(sorted(g.edge_set))] += 1
    tv = tv_distance_uniform(counts, 75)
    observed = np.array([counts.get(key, 0) for key in sorted(counts)])
    chi, pval = sps.chisquare(observed)   # uniform expectation
    elapsed = time.monotonic() - t0
    ok = (len(counts) == 75 and tv < 0.05 and pval > 0.001
          and elapsed < 120.0)
    record_criterion(2, ok, f"TV={tv:.4f} (< 0.05), chi-square p={pval:.3f} "
                            f"(> 0.001), {elapsed:.1f}s (< 2min)")
    assert ok


def test_criterion_03_ratio_identity():
    checked = 0
    failures = []
    cases = []
    g0 = OrderedHypergraph(6, 3)
    g1 = OrderedHypergraph(6, 3, [(1, 2, 3)])
    g2 = OrderedHypergraph(6, 3, [(1, 2, 3), (1, 4, 5)])
    for g in (g0, g1, g2):
        absent = [e for e in __import__("itertools").combinations(
            range(1, 7), 3) if e not in g.edge_set]
        pairs = [(absent[i], absent[j]) for i in range(len(absent))
                 for j in range(i + 1, len(absent))][:10]
        cases.extend((g, N6, e, f) for e, f in pairs)
    g3 = OrderedHypergraph(4, 2, [(1, 2)])
    cases.extend((g3, Params(4, 2, 2), e, f) for e, f in
                 [((1, 3), (3, 4)), ((1, 4), (2, 3)), ((3, 4), (2, 4))])
    for g, params, e, f in cases:
        base = set(g.edge_set)
        if focus_count(OrderedHypergraph(
                params.n, params.k, list(g.edges) + [f]), params) == 0:
            continue
        rep = verify_ratio_identity(g, e, f, params)
        checked += 1
        if rep.extension_ratio != rep.rhs:
            failures.append((tuple(base), e, f))
    ok = checked >= 20 and not failures
    record_criterion(3, ok, f"{checked} (G,e,f) triples exactly equal "
                            f"(>= 20 required), {len(failures)} failures")
    assert ok, failures


def test_criterion_04_coupling_marginal(coupling_pool):
    t0 = time.monotonic()
    tv = tv_distance_uniform(coupling_pool["final_counts"], 75)
    law = extension_family(OrderedHypergraph(6, 3), N6)
    ranked = sorted(coupling_pool["state_next"].items(),
                    key=lambda kv: -sum(kv[1].values()))[:10]
    pvals = []
    for (t, state), counts in ranked:
        sl = law.state(state)
        dist = sl.distribution()
        nobs = sum(counts.values())
        expected = np.array([float(dist[e]) * nobs for e in sl.support])
        observed = np.array([counts.get(e, 0) for e in sl.support])
        pvals.append(sps.chisquare(observed, expected).pvalue)
    elapsed = coupling_pool["build_seconds"] + time.monotonic() - t0
    ok = (len(coupling_pool["final_counts"]) == 75 and tv < 0.05
          and min(pvals) > 0.001 and elapsed < 600.0)
    record_criterion(4, ok, f"TV={tv:.4f} (< 0.05), min chi-square "
                            f"p={min(pvals):.4f} over 10 states (> 0.001), "
                            f"{elapsed:.1f}s (< 10min)")
    assert ok


def test_criterion_05_containment_implication(coupling_pool):
    fired = coupling_pool["antecedent"]
    held = coupling_pool["contained"]
    ok = fired > 1000 and held == fired
    record_criterion(5, ok, f"near-uniform & enough-accepted fired {fired} "
                            f"times, contained {held} (zero exceptions)")
    assert ok


def test_criterion_06_accepted_size_statistics(coupling_pool):
    cfg = coupling_pool["config"]
    sizes = coupling_pool["sizes"].astype(float)
    n_tr = len(sizes)
    eps = float(cfg.epsilon)
    steps, q = cfg.coupled_steps, 1 - eps
    exp_mean = steps * q                       # = (1-eps)^2 * M
    exp_var = steps * q * eps                  # = (1-eps)^2 * eps * M
    pmf = [math.comb(steps, j) * q ** j * eps ** (steps - j)
           for j in range(steps + 1)]
    mu4 = sum(pmf[j] * (j - exp_mean) ** 4 for j in range(steps + 1))
    z_mean = (sizes.mean() - exp_mean) / math.sqrt(exp_var / n_tr)
    se_var = math.sqrt((mu4 - exp_var ** 2 * (n_tr - 3) / (n_tr - 1)) / n_tr)
    z_var = (sizes.var(ddof=1) - exp_var) / se_var
    below = float((sizes < cfg.m).mean())
    bound = cfg.params.k / (eps * cfg.params.n * cfg.params.d)
    ok = abs(z_mean) < 3 and abs(z_var) < 3 and below <= bound
    record_criterion(6, ok, f"mean z={z_mean:.2f}, var z={z_var:.2f} "
                            f"(|z| < 3), P(|S|<m)={below:.4f} <= "
                            f"bound {bound:.3f}")
    assert ok


def _enumerate_family(params, base_edges=()):
    base = OrderedHypergraph(params.n, params.k, base_edges)
    fam = count_extensions(base, params)
    graphs = [Hypergraph(params.n, params.k,
                         list(base.edges) + list(tail))
              for tail in fam.completions]
    return base, fam, graphs


def _check_levels(base, fam, graphs, kind, pair):
    """Exact per-level balance plus the min/max sandwich; returns
    (balanced, sandwich_ok, nontrivial_totals).  Levels come from the
    graphs, per-graph move counts from one kernel call per class."""
    u, v = pair
    base_set = base.edge_set
    if kind == "pair_degree":
        stat = np.array([sum(1 for e in h.edge_set - base_set
                             if u in e and v in e) for h in graphs])
    else:
        stat = np.array([codegree_rel(h, base, u, v) for h in graphs])
    balanced = sandwich = True
    moves = 0
    for lvl in np.unique(stat).tolist():
        upper, lower = stat == lvl, stat == lvl - 1
        f = forward_counts(fam.restrict(upper), base, kind, pair=pair)
        b = backward_counts(fam.restrict(lower), base, kind, pair=pair)
        total = int(f.sum())
        balanced &= total == int(b.sum())
        moves += total
        if total and lower.any():
            # |C_lvl|*min f <= total <= |C_{lvl-1}|*max b, both ends exact
            sandwich &= (upper.sum() * f.min() <= total
                         <= lower.sum() * b.max())
    return balanced, sandwich, moves


def test_criterion_07_switching_double_counting():
    t0 = time.monotonic()
    results = []
    for n, k, d in [(5, 2, 2), (6, 2, 2), (9, 3, 2), (6, 3, 2)]:
        params = Params(n, k, d)
        base, fam, graphs = _enumerate_family(params)
        for kind in (("pair_degree", "codegree") if n == 5
                     else ("pair_degree",)):
            bal, sand, moves = _check_levels(base, fam, graphs, kind, (1, 2))
            cs = switching_class_sizes(base, 1, 2, kind, params)
            results.append((f"n{n}k{k}d{d}:{kind}", bal, sand,
                            cs.bottom == 0 and cs.is_interval, moves))
    # remove_edge classes on the matching-free instance
    params = Params(5, 2, 2)
    base, fam, graphs = _enumerate_family(params)
    e = (1, 2)
    having = np.array([e in h.edge_set for h in graphs])
    f = forward_counts(fam.restrict(having), base, "remove_edge", edge=e)
    b = backward_counts(fam.restrict(~having), base, "remove_edge", edge=e)
    total = int(f.sum())
    bal = total == int(b.sum()) and total > 0
    sand = having.sum() * f.min() <= total <= (~having).sum() * b.max()
    results.append(("n5k2d2:remove_edge", bal, sand, True, total))
    elapsed = time.monotonic() - t0
    nontrivial = sum(1 for r in results if r[4] > 0)
    ok = (len(results) >= 5 and all(r[1] for r in results)
          and all(r[2] for r in results) and all(r[3] for r in results)
          and nontrivial >= 4)
    record_criterion(7, ok, f"{len(results)} instances balanced exactly, "
                            f"sandwich + interval [0,L] hold, "
                            f"{nontrivial} with moves, {elapsed:.1f}s")
    assert ok, results


def test_criterion_08_degree_trajectories():
    t0 = time.monotonic()
    params = Params(12, 3, 4)
    rep = residual_report(params, 10_000, RngStream(3000))
    grid = [(t, v) for t in (4, 8, 12) for v in (1, 5, 9)]
    grid_z = [abs(rep.mean_z(t, v)) for t, v in grid]
    worst = rep.max_abs_mean_z()
    elapsed = time.monotonic() - t0
    # fixed grid at 3 sigma; global scan capped at 4.5 sigma (180 interior
    # points make a uniform 3-sigma cap flaky even at a frozen seed)
    ok = max(grid_z) < 3.0 and worst < 4.5 and elapsed < 300.0
    record_criterion(8, ok, f"9-point grid max|z|={max(grid_z):.2f} (< 3), "
                            f"global max|z|={worst:.2f} (< 4.5), "
                            f"{elapsed:.1f}s (< 5min)")
    assert ok


def test_criterion_09_hamiltonicity():
    t0 = time.monotonic()
    # finder/verifier agreement on 1000 instances
    stream = Pcg64Stream.of(RngStream(3))
    p8 = Params(8, 3, 6)
    decided = verified = 0
    for _ in range(1000):
        g = sample_regular(OrderedHypergraph(8, 3), p8,
                           stream).as_hypergraph()
        res = find_hamilton_cycle(g, 2)
        decided += res.decided
        if res.status == FOUND:
            verified += verify_cycle(g, res.certificate)
        else:
            verified += 1
    # all-permutations oracle match on 3-graphs with n <= 7, (k-ell) | n
    stream2 = Pcg64Stream.of(RngStream(4))
    naive_checked = naive_matched = 0
    plans = [(6, 2, [("reg", 2), ("reg", 3), ("gnm", 5), ("gnm", 7)], 80),
             (6, 1, [("reg", 2), ("gnm", 4), ("gnm", 6)], 50),
             (7, 2, [("reg", 3), ("gnm", 6), ("gnm", 8)], 20)]
    for n, ell, models, reps in plans:
        for model, x in models:
            for _ in range(reps):
                if model == "reg":
                    g = sample_regular(OrderedHypergraph(n, 3),
                                       Params(n, 3, x), stream2).as_hypergraph()
                else:
                    g = sample_gnm(n, 3, x, stream2).as_hypergraph()
                res = find_hamilton_cycle(g, ell)
                naive_checked += 1
                naive_matched += ((res.status == FOUND)
                                  == naive_hamiltonian(g, ell))
    pts = hamiltonicity_sweep(8, 3, 2, [3, 6, 15, 18, 21], 40, RngStream(4000))
    p_lo, p_hi = pts[0].p_hat, pts[-1].p_hat
    elapsed = time.monotonic() - t0
    ok = (decided == 1000 and verified == 1000
          and naive_checked >= 500 and naive_matched == naive_checked
          and p_lo < 0.2 and p_hi > 0.9 and elapsed < 900.0)
    record_criterion(9, ok, f"1000/1000 finder verdicts verified, "
                            f"{naive_matched}/{naive_checked} oracle matches, "
                            f"sweep {p_lo:.2f} -> {p_hi:.2f}, "
                            f"{elapsed:.1f}s (< 15min)")
    assert ok


def _digests(path):
    out = {}
    for name in sorted(os.listdir(path)):
        if name == "manifest.json":
            continue
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_criterion_10_byte_determinism(tmp_path):
    specs = [
        ("couple", {"n": 6, "k": 3, "d": 2, "gamma": 0.75}, 120),
        ("sample", {"model": "regular", "n": 6, "k": 3, "d": 2}, 10),
        ("process-stats", {"n": 9, "k": 3, "d": 2}, 40),
    ]
    all_ok = True
    details = []
    for kind, options, trials in specs:
        seen = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"{kind}-j{jobs}"
            run_experiment(ExperimentConfig(
                kind=kind, seed=31, trials=trials, jobs=jobs, out=str(out),
                fmt="csv", options=dict(options)))
            seen.append(_digests(out))
        same = seen[0] == seen[1] == seen[2]
        all_ok &= same
        details.append(f"{kind}:{'=' if same else '!'}")
    record_criterion(10, all_ok,
                     f"jobs 1/2/3 byte-identical data files "
                     f"({', '.join(details)}; manifest excluded)")
    assert all_ok
