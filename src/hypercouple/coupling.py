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
its conditional law.  `coupling_step` is the one resolution of a coupled
step: given the step's law, the proposal, the coin and the two prefixes it
returns the verdict, the branch and the exposed edge or the integer law it
is drawn from, and draws nothing; both p-modes call it.  Accepted
proposals within the horizon form the embedded edge supply: whenever every
coupled step was near-uniform and enough proposals were accepted, the
first m of them all appear in the final regular graph.

A trace draws from one stream: the proposals (a partial Fisher-Yates
shuffle of the edge pool), then the coins, then every resolution draw.
That stream is one `Pcg64Stream`, numpy's PCG64 on Python ints, handed to
every sampler the trace calls: every bounded draw is its own, and only the
samplers' permutations in mc mode (and the G(n, p) variant's binomial
count) borrow a numpy Generator at its position, so an exact run never
imports `numpy.random`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import (
    DomainError,
    Edge,
    OrderedHypergraph,
    Params,
    complement_edges,
)
from .oracle import StateLaw, prefix_tree
from .samplers import Pcg64Stream, sample_gnm, sample_regular


def _exact_ratio(value: float | Fraction, M: int) -> Fraction:
    """gamma or epsilon as an exact rational.  A Fraction (or int) is taken
    as is; a float within 1e-9/M of a multiple of 1/M is that multiple,
    since decimals such as 0.5714285714285714 stand for 4/7; any other
    float is its binary value."""
    if not isinstance(value, float):
        return Fraction(value)
    j = round(value * M)
    return Fraction(j, M) if abs(value * M - j) <= 1e-9 else Fraction(value)


def choose_epsilon(params: Params, gamma: float | Fraction) -> Fraction:
    """Largest j/M not exceeding gamma/3, so that epsilon*M is integral."""
    if not 0 < gamma < 1:
        raise DomainError(f"gamma={gamma} outside (0, 1)")
    g = _exact_ratio(gamma, params.M)
    j = params.M * g.numerator // (3 * g.denominator)
    if j < 1:
        raise DomainError(
            f"no feasible epsilon: M={params.M} is too small for gamma={gamma}"
        )
    return Fraction(j, params.M)


@dataclass(frozen=True)
class CouplingConfig:
    """Validated knobs of one coupling run.

    gamma fixes the embedded edge count m = (1-gamma)*M, which must be a
    positive integer.  epsilon must be j/M for an integer j >= 1 with
    epsilon <= gamma/3; then the coupled horizon (1-epsilon)*M is integral
    and m <= (1-3*epsilon)*M.  Both are read exactly (see `_exact_ratio`),
    so after construction gamma and epsilon are Fractions, epsilon = j/M,
    and every check on them is exact.  p_mode 'exact' computes the regular side's conditional law
    by enumeration; 'mc' estimates it from mc_trials sampled completions,
    realizes direct draws by sampling one completion and flags every
    near-uniformity verdict as uncertain.
    """

    params: Params
    gamma: float | Fraction
    epsilon: float | Fraction
    p_mode: str = "exact"
    mc_trials: int = 200
    # derived once from the fields above
    _m: int = field(init=False, repr=False, compare=False)
    _coupled_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.gamma < 1:
            raise DomainError(f"gamma={self.gamma} outside (0, 1)")
        M = self.params.M
        gamma = _exact_ratio(self.gamma, M)
        eps = _exact_ratio(self.epsilon, M)
        if (eps * M).denominator != 1 or eps * M < 1:
            raise DomainError(
                f"epsilon={self.epsilon} is not j/M for an integer j >= 1 (M={M})"
            )
        if eps > gamma / 3:
            raise DomainError(
                f"epsilon={self.epsilon} exceeds gamma/3={float(gamma / 3)}"
            )
        m = (1 - gamma) * M
        if m.denominator != 1 or m < 1:
            raise DomainError(
                f"(1-gamma)*M = {float(m)} must be a positive integer")
        if self.p_mode not in ("exact", "mc"):
            raise DomainError(f"p_mode must be 'exact' or 'mc', got {self.p_mode!r}")
        if self.p_mode == "mc" and self.mc_trials < 1:
            raise DomainError("mc_trials must be positive")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "_m", int(m))
        object.__setattr__(self, "_coupled_steps", M - int(eps * M))

    @property
    def m(self) -> int:
        """Edges of the uniform model embedded into the regular one."""
        return self._m

    @property
    def coupled_steps(self) -> int:
        """The horizon (1-epsilon)*M up to which proposals are drawn."""
        return self._coupled_steps

    @property
    def accepted_yardsticks(self) -> tuple[float, float, float]:
        """The accepted count is Binomial(coupled_steps, 1-eps): its mean
        (1-eps)^2 M, its variance (1-eps)^2 eps M and the Chebyshev bound
        k/(eps n d) on P(count < m), as floats."""
        p, eps = self.params, float(self.epsilon)
        return ((1 - eps) ** 2 * p.M, (1 - eps) ** 2 * eps * p.M,
                p.k / (eps * p.n * p.d))


class CouplingStep(NamedTuple):
    """One exposure step.  Past the coupled horizon there is no proposal,
    coin or verdict, so those fields are None."""

    index: int
    uniform_edge: Edge | None
    coin: int | None
    near_uniform: bool | None
    branch: str
    exposed_edge: Edge


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
                     stream: Pcg64Stream) -> int:
    """Index drawn with exact integer weights: a uniform integer below total
    is located in the integer cumulative sums."""
    return bisect_right(cumulative, stream.integers(total))


def coupling_step(law: StateLaw, eps: Fraction, proposal: Edge, coin: int,
                  regular_set: set[Edge], proposals: tuple[Edge, ...],
                  t: int) -> tuple[bool, str, Edge | None,
                                   tuple[tuple[int, ...], int] | None]:
    """Resolve coupled step t; draws nothing.

    law is the regular side's next-edge law at the prefix `regular_set` (R),
    and the uniform side has proposed proposals[:t] (U) before `proposal`.
    Returns (near_uniform, branch, edge, draw).  Under a near-uniform
    verdict an accepted proposal is exposed as it is (fresh) or, when it is
    already in R, through the order-preserving bijection of R - U onto
    U - R (mapped); edge is that exposed edge and draw is None.  A failed
    coin (excess) and a verdict that fails (direct) leave edge None, and
    draw is the integer law (cumulative, total) over law.support the edge
    is drawn from: `law.excess(eps)` or the state's own law.
    """
    near = law.near_uniform(eps)
    if not near:
        return near, "direct", None, (law.cumulative, law.total)
    if not coin:
        return near, "excess", None, law.excess(eps)
    if proposal not in regular_set:
        return near, "fresh", proposal, None
    uniform_set = set(proposals[:t])
    only_regular = sorted(regular_set - uniform_set)
    only_uniform = sorted(uniform_set - regular_set)
    return near, "mapped", only_uniform[only_regular.index(proposal)], None


def run_coupling(config: CouplingConfig, rng) -> CouplingTrace:
    """One joint exposure of the uniform and regular processes.

    All draws come from the one stream `Pcg64Stream.of(rng)` (an RngStream
    from its start, a Pcg64Stream from where it is), in a fixed order: the
    proposals as `sample_gnm` draws them, the coins as exact
    Bernoulli(1-eps) draws `integers(M) < coupled_steps`, then every
    resolution draw; so the proposals and coins are independent of the
    resolutions, as the construction requires.  mc-mode estimates and
    completions are `sample_regular` draws on the same stream.  Each
    coupled step takes one `StateLaw` (enumerated, or in mc mode estimated
    before the step resolves) and is resolved by `coupling_step`; exact
    laws come from walking the `PrefixTree` of (n, k, d) one child per
    exposed edge.
    """
    stream = Pcg64Stream.of(rng)
    params = config.params
    n, k = params.n, params.k
    cut = config.coupled_steps
    uniform_graph = sample_gnm(n, k, cut, stream)
    proposals = uniform_graph.edges
    coins = [int(c < cut) for c in stream.integers(params.M, size=cut)]

    eps = config.epsilon
    exact = config.p_mode == "exact"
    if exact:
        tree = prefix_tree(params)
        node = tree.root

    # the regular side's exposure order; every edge is a pool edge, so the
    # final graph is built once without re-validating them
    regular_seq: list[Edge] = []
    regular_set: set[Edge] = set()
    steps: list[CouplingStep] = []
    accepted: list[Edge] = []
    near_all = True

    for t in range(params.M):
        if exact:
            law = node.law
        else:
            regular_graph = OrderedHypergraph._from_canonical(n, k, regular_seq)
        if t < cut:
            if not exact:
                law = _estimate_law(regular_graph, params, config.mc_trials,
                                    stream)
            proposal, coin = proposals[t], coins[t]
            near, branch, exposed, draw = coupling_step(
                law, eps, proposal, coin, regular_set, proposals, t)
            near_all &= near
            if coin:
                accepted.append(proposal)
        else:
            proposal = coin = near = exposed = draw = None
            branch = "tail"

        if exposed is None:
            if exact or branch == "excess":
                # a tail step has no draw of its own: it takes the state's law
                cumulative, total = draw or (law.cumulative, law.total)
                exposed = law.support[_draw_cumulative(cumulative, total,
                                                       stream)]
            else:
                # mc mode realizes the law without estimating it: the next
                # edge of one sampled completion
                exposed = sample_regular(regular_graph, params, stream)[t]
        if exposed in regular_set:
            raise AssertionError(
                f"step {t} tried to re-expose {exposed}; conditional law broke"
            )
        regular_seq.append(exposed)
        regular_set.add(exposed)
        if exact and t + 1 < params.M:
            node = tree.child(node, exposed)
        if near and coin:
            # the step-level guarantee: an accepted proposal under a
            # near-uniform verdict is on the regular side immediately after
            assert proposal in regular_set
        steps.append(CouplingStep(
            index=t, uniform_edge=proposal, coin=coin, near_uniform=near,
            branch=branch, exposed_edge=exposed,
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
    if near_all and exact and enough:
        # the guarantee the construction exists for; never bypassed
        assert contained, "near-uniform accepted proposals escaped the regular graph"
    return CouplingTrace(
        config=config, steps=tuple(steps), accepted=tuple(accepted),
        embedded=embedded, used_fallback=used_fallback,
        regular_final=OrderedHypergraph._from_canonical(n, k, regular_seq),
        uniform_final=uniform_graph,
        near_uniform_all=near_all, certain=exact,
        accepted_enough=enough, contained=contained,
    )


def _estimate_law(regular_graph: OrderedHypergraph, params: Params, trials: int,
                  rng) -> StateLaw:
    """Next-edge law estimated from `trials` completions sampled in turn on
    `Pcg64Stream.of(rng)`: each absent edge weighs the number of completions
    exposing it next."""
    stream = Pcg64Stream.of(rng)
    t = len(regular_graph)
    counts = dict.fromkeys(complement_edges(regular_graph), 0)
    for _ in range(trials):
        counts[sample_regular(regular_graph, params, stream)[t]] += 1
    return StateLaw.from_weights(tuple(counts), tuple(counts.values()), trials)


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

    The trace runs on the one stream `Pcg64Stream.of(rng)` (an RngStream
    from its start, a Pcg64Stream from where it is); the binomial edge count
    B, drawn by the numpy Generator it hands off, and the fallback graph are
    drawn after it from the same stream.  When B <= m <= |accepted| the
    embedded graph is the first B accepted proposals, otherwise an
    independent uniform B-edge graph.
    """
    stream = Pcg64Stream.of(rng)
    if p is None:
        p = default_gnp_probability(config.params, config.gamma)
        if not 0.0 <= p <= 1.0:
            raise DomainError(
                f"default binomial density {p} outside [0, 1] (needs "
                f"gamma < 1/2); pass p explicitly at this scale"
            )
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binomial density p={p} outside [0, 1]")
    params = config.params
    trace = run_coupling(config, stream)
    with stream.handoff() as gen:
        b = int(gen.binomial(params.complete_count, p))
    if b <= config.m <= len(trace.accepted):
        embedded = tuple(trace.accepted[:b])
        fallback = False
    else:
        embedded = tuple(sample_gnm(params.n, params.k, b, stream).edges)
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
    """The traces' accepted counts against `config.accepted_yardsticks`."""
    if not traces:
        raise DomainError("no traces given")
    eps = float(config.epsilon)
    sizes = np.array([len(tr.accepted) for tr in traces], dtype=float)
    expected_mean, expected_var, below_bound = config.accepted_yardsticks
    below = float(np.mean(sizes < config.m))
    sigma_mean = math.sqrt(expected_var / len(sizes))
    return AcceptedSizeDiagnostics(
        traces=len(sizes),
        mean=float(sizes.mean()),
        variance=float(sizes.var(ddof=1)) if len(sizes) > 1 else 0.0,
        expected_mean=expected_mean,
        expected_variance=expected_var,
        mean_lower_bound=(1 - 2 * eps) * config.params.M,
        below_m_rate=below,
        below_m_bound=below_bound,
        mean_z=(float(sizes.mean()) - expected_mean) / sigma_mean,
    )
