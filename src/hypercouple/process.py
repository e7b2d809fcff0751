"""Edge exposure of the regular model and the mutual-simplicity switch probe.

`expose_process` reveals a uniform d-regular k-graph edge by edge and tracks
every vertex's residual degree, whose marginal at step t is d minus a
hypergeometric count.  `mutual_simplicity_probe` measures how often the
randomized replacement switch carries a uniform extension of G+f into a
simple extension of G+e: sample H containing G+f, swap f for e, then for
each vertex v_i of e\\f pick a uniformly random incident edge outside G+f
and trade v_i for the matching u_i of f\\e.  The switch conserves degrees,
so simplicity of the result is the only thing in question; the probe
classifies every failure into the coincidence/loop/collision events whose
rates the niceness conditions control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .core import (
    DomainError,
    Edge,
    Hypergraph,
    OrderedHypergraph,
    Params,
    codegree_rel,
    is_simple,
    make_edge,
)
from .samplers import Pcg64Stream, sample_multi_extension, sample_regular


@dataclass
class ProcessTrace:
    """One full exposure: the ordered graph and the residual-degree paths.

    residuals has shape (M+1, n); row t is X_t(v) = d - deg(v) after t
    exposed edges, so row 0 is constantly d and row M constantly 0.
    """

    graph: OrderedHypergraph
    residuals: np.ndarray


def expose_process(params: Params, rng) -> ProcessTrace:
    """Sample R(n,d) with a uniform edge order and expose it one edge at a
    time, recording every prefix's residual degrees."""
    M, k = params.M, params.k
    graph = sample_regular(OrderedHypergraph(params.n, k), params, rng)
    vertices = np.fromiter(chain.from_iterable(graph.edges), dtype=np.int64,
                           count=M * k)
    # hits[t, v-1] = 1 when the t-th exposed edge contains v; an edge's
    # vertices are distinct, so no cell is assigned twice
    hits = np.zeros((M + 1, params.n), dtype=np.int64)
    hits[np.arange(1, M + 1).repeat(k), vertices - 1] = 1
    res = np.subtract(params.d, np.cumsum(hits, axis=0, out=hits), out=hits)
    assert not res[M].any()
    return ProcessTrace(graph=graph, residuals=res)


@dataclass
class ResidualReport:
    """Aggregated residual-degree statistics over many exposures.

    Marginally X_t(v) = d - Hypergeometric(M, d, t), so the exact mean is
    tau*d and the exact variance t*(d/M)*(1-d/M)*(M-t)/(M-1).  Moments are
    kept per vertex (shape (M+1, n)): the row sum of X_t over vertices is
    the constant k*(M-t), so pooled means carry no information.  The
    envelope row is the share of vertices with |X_t(v) - tau*d| above
    sqrt(a*tau*d*log n), averaged over trials.  The report keeps sums over
    its trials, so reports on the same params and a add up, in the order
    they are added, to the report over all their trials.
    """

    params: Params
    trials: int
    a: float
    residual_sum: np.ndarray
    exceed_sum: np.ndarray
    exact_mean: np.ndarray
    exact_var: np.ndarray

    def __add__(self, other: "ResidualReport") -> "ResidualReport":
        if (other.params, other.a) != (self.params, self.a):
            raise DomainError("only reports on the same params and a add up")
        return ResidualReport(
            params=self.params, trials=self.trials + other.trials, a=self.a,
            residual_sum=self.residual_sum + other.residual_sum,
            exceed_sum=self.exceed_sum + other.exceed_sum,
            exact_mean=self.exact_mean, exact_var=self.exact_var)

    @property
    def emp_mean(self) -> np.ndarray:
        return self.residual_sum / self.trials

    @property
    def envelope_exceed(self) -> np.ndarray:
        return self.exceed_sum / self.trials

    @property
    def overall_exceed_rate(self) -> float:
        # interior steps only; both endpoints are deterministic
        return float(self.envelope_exceed[1:-1].mean()) if self.params.M > 1 \
            else 0.0

    def z_scores(self) -> np.ndarray:
        """Standard score of every vertex's empirical mean at every step
        against the exact hypergeometric moments, shape (M+1, n); 0 where
        the exact variance is 0, as at t = 0 and t = M."""
        se = np.sqrt(self.exact_var / self.trials)[:, None]
        z = np.zeros_like(self.residual_sum)
        np.divide(self.emp_mean - self.exact_mean[:, None], se, out=z,
                  where=se > 0)
        return z

    def mean_z(self, t: int, v: int) -> float:
        """Standard score of vertex v's empirical mean at step t."""
        return float(self.z_scores()[t, v - 1])

    def max_abs_mean_z(self) -> float:
        """Worst per-vertex mean deviation over all steps, in exact standard
        errors."""
        return float(np.abs(self.z_scores()).max())


def residual_moments(params: Params) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """tau = 1 - t/M and the exact mean tau*d and variance
    t*(d/M)*(1-d/M)*(M-t)/(M-1) of X_t(v) = d - Hypergeometric(M, d, t),
    each indexed by t = 0..M."""
    M, d = params.M, params.d
    t_axis = np.arange(M + 1, dtype=float)
    tau = (M - t_axis) / M
    exact_mean = tau * d
    with np.errstate(invalid="ignore"):
        exact_var = t_axis * (d / M) * (1 - d / M) * (M - t_axis) / (M - 1) \
            if M > 1 else np.zeros(M + 1)
    return tau, exact_mean, exact_var


@lru_cache(maxsize=8)
def _envelope(params: Params, a: float) -> tuple[np.ndarray, ...]:
    """The exact mean and variance of `residual_moments` and the envelope
    width sqrt(a*tau*d*log n) as a column, computed once per (params, a)
    and read-only, since `process-stats` asks for them on every trial."""
    tau, exact_mean, exact_var = residual_moments(params)
    width = np.sqrt(a * tau * params.d * math.log(params.n))[:, None]
    for array in (exact_mean, exact_var, width):
        array.flags.writeable = False
    return exact_mean, exact_var, width


def residual_report(params: Params, trials: int, rng,
                    a: float | None = None) -> ResidualReport:
    """Run `trials` independent exposures and compare residual trajectories
    with their exact hypergeometric moments.

    The pooled per-step variance over vertices is slightly below the
    marginal one (degrees are negatively associated), so only means are
    meant for tight tests; a must be positive and defaults to the
    concentration constant 3*(k+2) used by the degree-envelope heuristics.
    """
    stream = Pcg64Stream.of(rng)
    if trials < 1:
        raise DomainError("trials must be positive")
    if a is None:
        a = 3.0 * (params.k + 2)
    if not a > 0:
        raise DomainError(f"envelope constant a must be positive, got {a}")
    M, n = params.M, params.n
    exact_mean, exact_var, width = _envelope(params, a)
    # columns, broadcast over the vertices of each step
    mean = exact_mean[:, None]
    total = np.zeros((M + 1, n))
    exceed = np.zeros(M + 1)
    for _ in range(trials):
        res = expose_process(params, stream).residuals.astype(float)
        total += res
        deviation = np.abs(np.subtract(res, mean, out=res), out=res)
        exceed += (deviation > width).mean(axis=1)
    return ResidualReport(params=params, trials=trials, a=a,
                          residual_sum=total, exceed_sum=exceed,
                          exact_mean=exact_mean, exact_var=exact_var)


@dataclass
class NicenessReport:
    """Aggregate of the replacement-switch probe over sampled extensions.

    Events among non-degenerate trials: coincide = two picks landed on one
    edge; loop = a pick already contains its incoming vertex; collision = a
    replacement target sits in the sampled graph; pair_collision = two
    replacement targets agree; resurrect = a target equals e itself, which
    re-creates the swapped-in edge (possible at desk scale although the
    collision events do not cover it).  Bound means average, over nice
    trials, the per-graph expressions that dominate each event's
    conditional probability.
    """

    params: Params
    s: int
    trials: int
    degenerate: int
    nice_count: int
    nice1_fail: int
    nice2_fail: int
    nice3_fail: int
    simple_count: int
    simple_nice_count: int
    e1_count: int
    e2_count: int
    e3_count: int
    e4_count: int
    resurrect_count: int
    e1_bound_mean: float
    e2_bound_mean: float
    e3_bound_mean: float
    e4_bound_mean: float
    ell1: float
    ell2: float

    @property
    def effective(self) -> int:
        return self.trials - self.degenerate

    def event_rates(self) -> dict[str, float]:
        n = self.nice_count
        if n == 0:
            return {}
        return {"coincide": self.e1_count / n, "loop": self.e2_count / n,
                "collision": self.e3_count / n,
                "pair_collision": self.e4_count / n,
                "resurrect": self.resurrect_count / n}


@dataclass(frozen=True)
class MutualSample:
    """One joint draw of the two raw extensions related by vertex-copy
    replacement; each flag says whether that side came out simple."""

    f_simple: bool
    e_simple: bool
    degenerate: bool


def _switch_setup(G: OrderedHypergraph, e: Edge, f: Edge, params: Params
                  ) -> tuple[Edge, tuple[int, ...], tuple[int, ...],
                             OrderedHypergraph]:
    """Canonical e, the vertices u_i of f\\e and v_i of e\\f in increasing
    order, and the base G+f, for edges e and f both absent from G."""
    e = make_edge(e, params.n, params.k)
    f = make_edge(f, params.n, params.k)
    if e in G.edge_set or f in G.edge_set:
        raise DomainError("e and f must be absent from G")
    return (e, tuple(sorted(set(f) - set(e))), tuple(sorted(set(e) - set(f))),
            OrderedHypergraph(params.n, params.k, list(G.edges) + [f]))


def sample_mutual_pair(G: OrderedHypergraph, e: Edge, f: Edge, params: Params,
                       rng) -> MutualSample:
    """Couple the raw extensions of G+f and G+e on one permutation draw.

    The extension of G+f is sampled from the vertex-copy model; replacing
    one uniformly chosen copy of each v_i in its tail by u_i and re-basing
    on G+e yields a draw with exactly the law of G+e's extension, so the
    two simplicity indicators estimate both probabilities jointly.
    """
    stream = Pcg64Stream.of(rng)
    e, us, vs, base_f = _switch_setup(G, e, f, params)
    draw = sample_multi_extension(base_f, params, stream)
    f_simple = draw.is_simple()
    tail = [list(block) for block in draw.tail]
    for u, v in zip(us, vs):
        spots = [(i, j) for i, block in enumerate(tail)
                 for j, x in enumerate(block) if x == v]
        if not spots:
            return MutualSample(f_simple=f_simple, e_simple=False,
                                degenerate=True)
        i, j = spots[stream.integers(len(spots))]
        tail[i][j] = u
    base_e = OrderedHypergraph(params.n, params.k, list(G.edges) + [e])
    return MutualSample(f_simple=f_simple,
                        e_simple=is_simple(chain(base_e, tail)),
                        degenerate=False)


def _switch_once(hp_edges: list[Edge], e: Edge,
                 us: tuple[int, ...], vs: tuple[int, ...], G_edges: list[Edge],
                 stream: Pcg64Stream):
    """One randomized replacement switch on a sampled extension.

    Returns None when some v_i has no incident free edge (degenerate), else
    (picks, final_multiset) where picks[i] is the edge chosen for v_i.
    """
    picks: list[Edge] = []
    for v in vs:
        incident = [h for h in hp_edges if v in h]
        if not incident:
            return None
        picks.append(incident[stream.integers(len(incident))])
    groups: dict[Edge, list[int]] = {}
    for i, c in enumerate(picks):
        groups.setdefault(c, []).append(i)
    final: list[tuple[int, ...]] = [e]
    final.extend(G_edges)
    final.extend(h for h in hp_edges if h not in groups)
    for c, idxs in groups.items():
        body = [x for x in c if x not in {vs[i] for i in idxs}]
        body.extend(us[i] for i in idxs)     # may repeat a vertex: a loop
        final.append(tuple(sorted(body)))
    return picks, final


def mutual_simplicity_probe(G: OrderedHypergraph, e: Edge, f: Edge,
                            params: Params, trials: int, rng,
                            c1: float = 1.0, c2: float = 1.0) -> NicenessReport:
    """Sample extensions of G+f and push each through the replacement switch
    toward G+e, recording niceness, the failure events and their per-graph
    bound expressions.

    Degenerate trials (some v_i with no free incident edge) are excluded
    from every rate.  Two invariants are asserted on every switch: the
    result is d-regular as a multigraph, and when e was absent from the
    sample a non-simple result implies one of the five recorded events.
    """
    stream = Pcg64Stream.of(rng)
    e, us, vs, base = _switch_setup(G, e, f, params)
    if trials < 1:
        raise DomainError("trials must be positive")
    s = len(vs)
    t = len(G)
    base_set = frozenset(base.edge_set)
    G_edges = list(G.edges)
    tau = (params.M - (t + 1)) / params.M
    ell1 = c1 * tau * params.d / params.n
    ell2 = c2 * tau * params.d**2 / params.n ** (params.k - 1)
    log_cut = params.k * math.log2(params.n)

    degenerate = nice_count = 0
    n1f = n2f = n3f = 0
    simple_count = simple_nice = 0
    e1c = e2c = e3c = e4c = resc = 0
    b1s = b2s = b3s = b4s = 0.0

    for _ in range(trials):
        full = sample_regular(base, params, stream)
        full_set = full.edge_set
        hp_edges = sorted(full_set - base_set)
        hp = Hypergraph(params.n, params.k, hp_edges)

        nice1 = e not in full_set
        nice3 = all(hp.pair_degree(u, v) <= ell1 + log_cut
                    for u, v in zip(us, vs))
        nice2 = all(codegree_rel(full, base, u, v) <= ell2 + log_cut
                    for u, v in zip(us, vs))
        nice = nice1 and nice2 and nice3

        out = _switch_once(hp_edges, e, us, vs, G_edges, stream)
        if out is None:
            degenerate += 1
            continue
        picks, final = out
        n1f += not nice1
        n2f += not nice2
        n3f += not nice3
        nice_count += nice

        targets = [tuple(sorted((set(c) - {v}) | {u}))
                   for c, u, v in zip(picks, us, vs)]
        e1 = any(picks[i] == picks[j] for i, j in combinations(range(s), 2))
        e2 = any(u in c for u, c in zip(us, picks))
        e3 = any(tg in full_set for tg in targets)
        e4 = any(targets[i] == targets[j]
                 for i, j in combinations(range(s), 2))
        resurrect = any(tg == e for tg in targets)

        counts: dict[int, int] = {}
        for edge in final:
            for v in edge:
                counts[v] = counts.get(v, 0) + 1
        assert all(counts.get(v, 0) == params.d for v in range(1, params.n + 1)), \
            "replacement switch broke d-regularity"
        simple = is_simple(final)
        if nice1 and not simple:
            assert e1 or e2 or e3 or e4 or resurrect, \
                "non-simple switch escaped every recorded event"

        simple_count += simple
        if nice:
            simple_nice += simple
            e1c += e1
            e2c += e2
            e3c += e3
            e4c += e4
            resc += resurrect
            deg = {v: hp.degree(v) for v in set(us) | set(vs)}
            b1s += sum(hp.pair_degree(vs[i], vs[j]) / (deg[vs[i]] * deg[vs[j]])
                       for i, j in combinations(range(s), 2))
            b2s += sum(hp.pair_degree(u, v) / deg[v]
                       for u, v in zip(us, vs))
            b3s += sum(codegree_rel(full, base, u, v) / deg[v]
                       for u, v in zip(us, vs))
            b4s += sum(hp.pair_degree(vs[i], us[j]) / (deg[vs[i]] * deg[vs[j]])
                       for i, j in combinations(range(s), 2))

    nc = max(nice_count, 1)
    return NicenessReport(
        params=params, s=s, trials=trials, degenerate=degenerate,
        nice_count=nice_count, nice1_fail=n1f, nice2_fail=n2f, nice3_fail=n3f,
        simple_count=simple_count, simple_nice_count=simple_nice,
        e1_count=e1c, e2_count=e2c, e3_count=e3c, e4_count=e4c,
        resurrect_count=resc, e1_bound_mean=b1s / nc, e2_bound_mean=b2s / nc,
        e3_bound_mean=b3s / nc, e4_bound_mean=b4s / nc, ell1=ell1, ell2=ell2,
    )
