"""Joint edge exposure of the uniform and regular k-graph processes.

Both processes are driven from one stream of proposals.  At each coupled
step a uniform absent edge and a Bernoulli(1 - epsilon) coin are drawn for
the uniform-process side; when the regular process's next-edge law is
near-uniform (every absent edge carries at least (1 - epsilon) times the
uniform probability), the regular side reuses the proposal: accepted fresh
proposals are exposed as-is, proposals already present on the regular side
go through an order-preserving bijection onto the symmetric difference, and
failed coins draw from the excess law.  When near-uniformity fails, and on
every step past the coupled horizon, the regular side draws directly from
its conditional law.  Accepted proposals within the horizon form the
embedded edge supply: whenever every coupled step was near-uniform and
enough proposals were accepted, the first m of them all appear in the final
regular graph.

A trace draws from one generator: the proposals (a partial Fisher-Yates
shuffle of the edge pool), then the coins, then every resolution draw.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DomainError,
    Edge,
    OrderedHypergraph,
    Params,
    complement_edges,
)
from .oracle import ExtensionFamily, extension_family
from .samplers import as_generator, sample_gnm, sample_regular


def choose_epsilon(params: Params, gamma: float) -> float:
    """Largest j/M not exceeding gamma/3, so that epsilon*M is integral."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma={gamma} outside (0, 1)")
    j = math.floor(params.M * gamma / 3.0 + 1e-12)
    if j < 1:
        raise DomainError(
            f"no feasible epsilon: M={params.M} is too small for gamma={gamma}"
        )
    return j / params.M


@dataclass(frozen=True)
class CouplingConfig:
    """Validated knobs of one coupling run.

    gamma fixes the embedded edge count m = (1-gamma)*M, which must be a
    positive integer.  epsilon must be j/M for an integer j >= 1 with
    epsilon <= gamma/3; then the coupled horizon (1-epsilon)*M is integral
    and m <= (1-3*epsilon)*M.  p_mode 'exact' computes the regular side's
    conditional law by enumeration; 'mc' realizes direct draws by sampling
    one completion and flags every near-uniformity verdict as uncertain.
    """

    params: Params
    gamma: float
    epsilon: float
    p_mode: str = "exact"
    mc_trials: int = 200
    oracle_budget: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma={self.gamma} outside (0, 1)")
        M = self.params.M
        j = round(self.epsilon * M)
        if j < 1 or abs(self.epsilon * M - j) > 1e-9:
            raise DomainError(
                f"epsilon={self.epsilon} is not j/M for an integer j >= 1 (M={M})"
            )
        if self.epsilon > self.gamma / 3.0 + 1e-12:
            raise DomainError(
                f"epsilon={self.epsilon} exceeds gamma/3={self.gamma / 3.0}"
            )
        m = (1.0 - self.gamma) * M
        if abs(m - round(m)) > 1e-9 or round(m) < 1:
            raise DomainError(f"(1-gamma)*M = {m} must be a positive integer")
        if self.p_mode not in ("exact", "mc"):
            raise DomainError(f"p_mode must be 'exact' or 'mc', got {self.p_mode!r}")
        if self.p_mode == "mc" and self.mc_trials < 1:
            raise DomainError("mc_trials must be positive")

    @property
    def m(self) -> int:
        """Edges of the uniform model embedded into the regular one."""
        return round((1.0 - self.gamma) * self.params.M)

    @property
    def epsilon_exact(self) -> Fraction:
        return Fraction(round(self.epsilon * self.params.M), self.params.M)

    @property
    def coupled_steps(self) -> int:
        """The horizon (1-epsilon)*M up to which proposals are drawn."""
        return self.params.M - round(self.epsilon * self.params.M)


@dataclass(frozen=True)
class CouplingStep:
    """One exposure step.  Fields are None when the step does not draw them:
    past the coupled horizon there is no proposal, coin or verdict, and the
    excess_edge exists only on near-uniform steps with a failed coin."""

    index: int
    uniform_edge: Edge | None
    coin: int | None
    near_uniform: bool | None
    certain: bool
    branch: str
    exposed_edge: Edge
    excess_edge: Edge | None


BRANCHES = ("fresh", "mapped", "excess", "direct", "tail")


@dataclass
class CouplingTrace:
    """Everything one joint run exposes, plus the derived verdicts."""

    config: CouplingConfig
    steps: tuple[CouplingStep, ...]
    accepted: tuple[Edge, ...]
    embedded: tuple[Edge, ...]
    used_fallback: bool
    regular_final: OrderedHypergraph
    uniform_final: OrderedHypergraph
    near_uniform_all: bool
    certain: bool
    accepted_enough: bool
    contained: bool


def _draw_cumulative(cumulative: tuple[int, ...], total: int,
                     gen: np.random.Generator) -> int:
    """Index drawn with exact integer weights: a uniform integer below total
    is located in the integer cumulative sums."""
    return bisect_right(cumulative, int(gen.integers(total)))


@dataclass
class NearUniformityCheck:
    """Verdict of the near-uniformity event for one prefix state."""

    holds: bool
    min_ratio: float
    certain: bool
    worst_edge: Edge | None


def check_near_uniformity(G: OrderedHypergraph, epsilon: float, params: Params,
                          p_mode: str = "exact", mc_trials: int = 2000,
                          rng=None, budget: int | None = None) -> NearUniformityCheck:
    """Does every absent edge carry at least (1-epsilon) times the uniform
    probability under the regular process's next-edge law?

    Exact mode compares rationals (epsilon taken at its exact binary value);
    mc mode estimates the law from sampled completions and is never certain.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon={epsilon} outside (0, 1)")
    t = len(G)
    if t >= params.M:
        raise DomainError("state already complete; no next edge exists")
    scale = params.complete_count - t
    if p_mode == "exact":
        fam = extension_family(G, params, budget)
        law = fam.state(fam.base, t)
        idx = min(range(len(law.support)), key=lambda i: law.weights[i])
        return NearUniformityCheck(
            holds=bool(law.min_ratio >= 1 - Fraction(epsilon)),
            min_ratio=float(law.min_ratio), certain=True,
            worst_edge=law.support[idx],
        )
    if p_mode != "mc":
        raise DomainError(f"p_mode must be 'exact' or 'mc', got {p_mode!r}")
    if rng is None:
        raise DomainError("mc mode needs an rng")
    estimate = _estimate_law(G, params, mc_trials, as_generator(rng))
    worst_edge = min(sorted(estimate), key=lambda e: estimate[e])
    min_ratio = estimate[worst_edge] * scale
    return NearUniformityCheck(
        holds=min_ratio >= 1 - epsilon, min_ratio=min_ratio,
        certain=False, worst_edge=worst_edge,
    )


def run_coupling(config: CouplingConfig, rng) -> CouplingTrace:
    """One joint exposure of the uniform and regular processes.

    All draws come from the one generator `as_generator(rng)` (a Generator
    passed in is consumed directly, not spawned), in a fixed order: the
    proposals as `sample_gnm` draws them, the coins as exact Bernoulli(1-eps)
    draws `integers(M) < coupled_steps`, then every resolution draw; so the
    proposals and coins are independent of the resolutions, as the
    construction requires.
    """
    params = config.params
    gen = as_generator(rng)
    cut = config.coupled_steps
    uniform_graph = sample_gnm(params.n, params.k, cut, gen)
    proposals = uniform_graph.edges
    coins = (gen.integers(params.M, size=cut) < cut).tolist()

    eps = config.epsilon_exact
    keep = 1 - eps
    exact = config.p_mode == "exact"
    law = extension_family(OrderedHypergraph(params.n, params.k), params,
                           config.oracle_budget) if exact else None

    regular_graph = OrderedHypergraph(params.n, params.k)
    regular_set = regular_graph.edge_set
    steps: list[CouplingStep] = []
    accepted: list[Edge] = []
    near_all = True
    certain_all = True

    for t in range(params.M):
        proposal: Edge | None = None
        coin: int | None = None
        near: bool | None = None
        sure = exact
        estimate = None
        if t < cut:
            proposal = proposals[t]
            coin = int(coins[t])
            if exact:
                near = bool(law.state(frozenset(regular_set), t).min_ratio
                            >= keep)
            else:
                estimate = _estimate_law(regular_graph, params,
                                         config.mc_trials, gen)
                scale = params.complete_count - t
                near = bool(min(estimate.values()) * scale >= keep)

        excess: Edge | None = None
        if t >= cut:
            branch = "tail"
            exposed = _conditional_draw(law, regular_graph, regular_set, t,
                                        params, gen)
        elif not near:
            branch = "direct"
            exposed = _conditional_draw(law, regular_graph, regular_set, t,
                                        params, gen)
        elif coin == 1 and proposal not in regular_set:
            branch = "fresh"
            exposed = proposal
        elif coin == 1:
            # proposal already exposed on the regular side: map it through the
            # order-preserving bijection between the symmetric differences
            uniform_set = set(proposals[:t])
            only_regular = sorted(regular_set - uniform_set)
            only_uniform = sorted(uniform_set - regular_set)
            exposed = only_uniform[only_regular.index(proposal)]
            branch = "mapped"
        else:
            branch = "excess"
            exposed = _excess_draw(law, estimate, regular_set, t, eps, params,
                                   gen)
            excess = exposed

        if t < cut:
            near_all &= bool(near)
            certain_all &= sure
            if coin == 1:
                accepted.append(proposal)
        if exposed in regular_set:
            raise AssertionError(
                f"step {t} tried to re-expose {exposed}; conditional law broke"
            )
        regular_graph.append(exposed)
        if t < cut and near and coin == 1:
            # the step-level guarantee: an accepted proposal under a
            # near-uniform verdict is on the regular side immediately after
            assert proposal in regular_set
        steps.append(CouplingStep(
            index=t, uniform_edge=proposal, coin=coin, near_uniform=near,
            certain=sure, branch=branch, exposed_edge=exposed,
            excess_edge=excess,
        ))

    m = config.m
    enough = len(accepted) >= m
    if enough:
        embedded = tuple(accepted[:m])
        used_fallback = False
    else:
        embedded = proposals[:m]
        used_fallback = True
    contained = all(e in regular_set for e in embedded)
    if near_all and certain_all and enough:
        # the guarantee the construction exists for; never bypassed
        assert contained, "near-uniform accepted proposals escaped the regular graph"
    return CouplingTrace(
        config=config, steps=tuple(steps), accepted=tuple(accepted),
        embedded=embedded, used_fallback=used_fallback,
        regular_final=regular_graph, uniform_final=uniform_graph,
        near_uniform_all=near_all, certain=certain_all,
        accepted_enough=enough, contained=contained,
    )


def _conditional_draw(law: ExtensionFamily | None, regular_graph: OrderedHypergraph,
                      regular_set: set[Edge], t: int, params: Params,
                      gen: np.random.Generator) -> Edge:
    """Draw the next regular edge from its conditional law: exactly via the
    cached integer weights, or by sampling one uniform completion and taking
    its next edge, which realizes the law without estimating it."""
    if law is not None:
        state = law.state(frozenset(regular_set), t)
        return state.support[_draw_cumulative(state.cumulative, state.total, gen)]
    return sample_regular(regular_graph, params, gen)[t]


def _excess_draw(law: ExtensionFamily | None, estimate: dict[Edge, float] | None,
                 regular_set: set[Edge], t: int, eps: Fraction, params: Params,
                 gen: np.random.Generator) -> Edge:
    """Draw from the excess law (p - (1-eps) * uniform) / eps; exact when the
    law provider is enumerated, clipped estimates otherwise."""
    if law is not None:
        support, cumulative, total = law.excess(frozenset(regular_set), t, eps)
        return support[_draw_cumulative(cumulative, total, gen)]
    support = tuple(sorted(estimate))
    base = (1.0 - float(eps)) / (params.complete_count - t)
    clipped = np.array([max(estimate[e] - base, 0.0) for e in support])
    total = clipped.sum()
    if total <= 0.0:
        return support[int(gen.integers(len(support)))]
    return support[int(gen.choice(len(support), p=clipped / total))]


def _estimate_law(regular_graph: OrderedHypergraph, params: Params, trials: int,
                  gen: np.random.Generator) -> dict[Edge, float]:
    t = len(regular_graph)
    counts: dict[Edge, int] = {e: 0 for e in complement_edges(regular_graph)}
    for _ in range(trials):
        ext = sample_regular(regular_graph, params, gen)
        counts[ext[t]] += 1
    return {e: c / trials for e, c in counts.items()}


@dataclass
class GnpCouplingTrace:
    """Binomial-model variant: the embedded graph takes the first B accepted
    proposals when B <= m <= |accepted|, else an independent uniform draw."""

    base: CouplingTrace
    p: float
    edge_count: int
    embedded: tuple[Edge, ...]
    independent_fallback: bool
    contained: bool


def default_gnp_probability(params: Params, gamma: float) -> float:
    """Default binomial density (1 - 2*gamma) * d / comb(n-1, k-1)."""
    return (1.0 - 2.0 * gamma) * params.d / params.max_degree


def run_coupling_gnp(config: CouplingConfig, rng,
                     p: float | None = None) -> GnpCouplingTrace:
    """Couple the binomial model through the accepted-proposal supply.

    The trace runs on the one generator `as_generator(rng)` (a Generator
    passed in is consumed directly, not spawned); the binomial edge count B
    and the fallback graph are drawn after it from the same generator.  When
    B <= m <= |accepted| the embedded graph is the first B accepted
    proposals, otherwise an independent uniform B-edge graph.
    """
    if p is None:
        p = default_gnp_probability(config.params, config.gamma)
        if not 0.0 <= p <= 1.0:
            raise DomainError(
                f"default binomial density {p} outside [0, 1] (needs "
                f"gamma < 1/2); pass p explicitly at this scale"
            )
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binomial density p={p} outside [0, 1]")
    gen = as_generator(rng)
    trace = run_coupling(config, gen)
    params = config.params
    b = int(gen.binomial(params.complete_count, p))
    if b <= config.m <= len(trace.accepted):
        embedded = tuple(trace.accepted[:b])
        fallback = False
    else:
        embedded = tuple(sample_gnm(params.n, params.k, b, gen).edges)
        fallback = True
    contained = all(e in trace.regular_final.edge_set for e in embedded)
    return GnpCouplingTrace(
        base=trace, p=p, edge_count=b, embedded=embedded,
        independent_fallback=fallback, contained=contained,
    )


@dataclass
class AcceptedSizeDiagnostics:
    """Empirical law of the accepted-proposal count against its exact
    binomial yardstick."""

    traces: int
    mean: float
    variance: float
    expected_mean: float
    expected_variance: float
    mean_lower_bound: float
    below_m_rate: float
    below_m_bound: float
    mean_z: float

    @property
    def bound_satisfied(self) -> bool:
        return self.below_m_rate <= self.below_m_bound


def accepted_size_diagnostics(config: CouplingConfig,
                              traces: list[CouplingTrace]) -> AcceptedSizeDiagnostics:
    """The accepted count is Binomial(coupled_steps, 1-eps): mean
    (1-eps)^2 M, variance (1-eps)^2 eps M, and P(count < m) <= k/(eps n d)."""
    if not traces:
        raise DomainError("no traces given")
    params = config.params
    eps = float(config.epsilon_exact)
    sizes = np.array([len(tr.accepted) for tr in traces], dtype=float)
    expected_mean = (1 - eps) ** 2 * params.M
    expected_var = (1 - eps) ** 2 * eps * params.M
    below = float(np.mean(sizes < config.m))
    sigma_mean = math.sqrt(expected_var / len(sizes))
    return AcceptedSizeDiagnostics(
        traces=len(sizes),
        mean=float(sizes.mean()),
        variance=float(sizes.var(ddof=1)) if len(sizes) > 1 else 0.0,
        expected_mean=expected_mean,
        expected_variance=expected_var,
        mean_lower_bound=(1 - 2 * eps) * params.M,
        below_m_rate=below,
        below_m_bound=params.k / (eps * params.n * params.d),
        mean_z=(float(sizes.mean()) - expected_mean) / sigma_mean,
    )
