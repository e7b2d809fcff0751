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
imports `numpy.random`.  `run_coupling_lanes` walks the exact traces of
many trials at once, one `Pcg64Lanes` lane each, and draws and exposes
what `run_coupling` does on each trial's stream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import (
    DomainError,
    Edge,
    OrderedHypergraph,
    Params,
    complement_edges,
    edge_pool,
)
from .oracle import StateLaw, prefix_tree
from .samplers import Pcg64Lanes, Pcg64Stream, sample_gnm, sample_regular


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


@dataclass
class CouplingLanes:
    """Joint exposures walked together by `run_coupling_lanes`, one lane per
    trial, as arrays of pool columns: lane i is the `CouplingTrace` that
    `trace(i)` rebuilds."""

    config: CouplingConfig
    proposals: np.ndarray  # (lanes, coupled steps): the uniform side's
    coins: np.ndarray      # (lanes, coupled steps) bool
    near: np.ndarray       # (lanes, coupled steps) bool: the verdicts
    branches: np.ndarray   # (lanes, M) int8: index into BRANCHES
    exposed: np.ndarray    # (lanes, M): the regular side's exposure order
    contained: np.ndarray  # (lanes,) bool

    @property
    def accepted(self) -> np.ndarray:
        return self.coins.sum(axis=1)

    @property
    def near_uniform_all(self) -> np.ndarray:
        return self.near.all(axis=1)

    @classmethod
    def concat(cls, parts: list["CouplingLanes"]) -> "CouplingLanes":
        """The lanes of parts, in order."""
        return cls(parts[0].config, *(
            np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls)[1:]))

    def trace(self, i: int) -> CouplingTrace:
        """Lane i as the `CouplingTrace` that `run_coupling` returns."""
        config, cut = self.config, self.config.coupled_steps
        n, k, m = config.params.n, config.params.k, config.m
        edges = edge_pool(n, k).edges
        proposals = tuple(edges[c] for c in self.proposals[i].tolist())
        coins, near = self.coins[i].tolist(), self.near[i].tolist()
        exposed = [edges[c] for c in self.exposed[i].tolist()]
        steps = tuple(
            CouplingStep(index=t, uniform_edge=proposals[t],
                         coin=int(coins[t]), near_uniform=near[t],
                         branch=BRANCHES[b], exposed_edge=e) if t < cut else
            CouplingStep(index=t, uniform_edge=None, coin=None,
                         near_uniform=None, branch=BRANCHES[b],
                         exposed_edge=e)
            for t, (b, e) in enumerate(zip(self.branches[i].tolist(),
                                           exposed)))
        accepted = tuple(p for p, c in zip(proposals, coins) if c)
        enough = len(accepted) >= m
        return CouplingTrace(
            config=config, steps=steps, accepted=accepted,
            embedded=accepted[:m] if enough else proposals[:m],
            used_fallback=not enough,
            regular_final=OrderedHypergraph._from_canonical(n, k, exposed),
            uniform_final=OrderedHypergraph._from_canonical(n, k, proposals),
            near_uniform_all=all(near), certain=True, accepted_enough=enough,
            contained=bool(self.contained[i]))


def _runs(key: np.ndarray) -> tuple[np.ndarray, list[int], list[int],
                                    np.ndarray]:
    """The lanes ordered by key, and the runs of equal keys in that order:
    their keys, their starts and their sizes."""
    order = key.argsort()
    ordered = key[order]
    first = np.ones(len(key), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    bounds = np.append(first.nonzero()[0], len(key))
    starts = bounds[:-1]
    return (order, ordered[starts].tolist(), starts.tolist(),
            bounds[1:] - starts)


# below this many lanes the array calls of a step cost more than the lanes'
# own steps, so each lane is walked alone
_LANES_MIN = 32


def run_coupling_lanes(config: CouplingConfig,
                       lanes: Pcg64Lanes) -> CouplingLanes:
    """`run_coupling` in exact mode for every lane of `lanes` at once: lane
    i exposes and draws what `run_coupling(config, lanes.stream(i))`, taken
    before the walk, would.

    The head draws every lane's proposals, a partial Fisher-Yates shuffle
    over pool columns as `sample_gnm` draws it, then its coins.  At each
    step the lanes are grouped by their `PrefixTree` node and, on a coupled
    step, by the class (coin, proposal in R) as well; `coupling_step`
    resolves each group once, from its first lane, and again each lane of
    a group it resolves as mapped.  The step's draws are one lane call,
    each located in its integer cumulative sums by searchsorted
    (side="right"), as `bisect_right` does, and the children are taken
    once per distinct (node, exposed edge).  Every lane keeps the checks of
    `run_coupling`: no edge exposed twice, an accepted proposal under a
    near-uniform verdict on the regular side at once, and the containment
    assertion.  Fewer than _LANES_MIN lanes are each walked by
    `run_coupling` on the lane's stream.
    """
    if config.p_mode != "exact":
        raise DomainError("the lanes walk exact laws only")
    params = config.params
    n, k, M = params.n, params.k, params.M
    edges, column = edge_pool(n, k).edges, edge_pool(n, k).column
    C, L, cut, eps = len(edges), lanes.size, config.coupled_steps, \
        config.epsilon
    if L < _LANES_MIN:
        traces = [run_coupling(config, lanes.stream(i)) for i in range(L)]
        steps = [trace.steps for trace in traces]
        return CouplingLanes(
            config=config,
            proposals=np.array([[column(s.uniform_edge) for s in row[:cut]]
                                for row in steps], dtype=np.intp),
            coins=np.array([[s.coin for s in row[:cut]] for row in steps],
                           dtype=bool),
            near=np.array([[s.near_uniform for s in row[:cut]]
                           for row in steps], dtype=bool),
            branches=np.array([[BRANCHES.index(s.branch) for s in row]
                               for row in steps], dtype=np.int8),
            exposed=np.array([[column(s.exposed_edge) for s in row]
                              for row in steps], dtype=np.intp),
            contained=np.array([trace.contained for trace in traces]))

    rows = np.arange(L)
    head = lanes.integers_in_turn([C - t for t in range(cut)] + [M] * cut
                                  ).astype(np.intp)
    order = np.tile(np.arange(C, dtype=np.min_scalar_type(C)), (L, 1))
    for t in range(cut):
        j = head[:, t] + t
        swap = order[rows, j]
        order[rows, j] = order[:, t]
        order[:, t] = swap
    proposals = order[:, :cut].astype(np.intp)
    coins = head[:, cut:] < cut
    columns = proposals.tolist()

    def proposed(r: int) -> tuple[Edge, ...]:
        return tuple(map(edges.__getitem__, columns[r]))

    tree = prefix_tree(params)
    nodes = [tree.root]
    at = np.zeros(L, dtype=np.intp)      # each lane's node in `nodes`
    held = np.zeros((L, C), dtype=bool)  # the regular side's edges, R
    near = np.ones((L, cut), dtype=bool)
    branches = np.empty((L, M), dtype=np.int8)
    exposed = np.empty((L, M), dtype=np.intp)
    for t in range(M):
        coupled = t < cut
        if coupled:
            proposal, coin = proposals[:, t], coins[:, t]
            order, keys, starts, sizes = _runs(
                at * 4 + coin * 2 + held[rows, proposal])
        else:
            order, keys, starts, sizes = _runs(at)
        lane = order.tolist()
        kinds, verdicts, highs, laws = [], [], [], {}
        for key, s in zip(keys, starts):
            r = lane[s]
            node = nodes[key >> 2 if coupled else key]
            law = node.law
            if coupled:
                verdict, branch, _, draw = coupling_step(
                    law, eps, edges[columns[r][t]], (key >> 1) & 1,
                    node.edges, proposed(r), t)
                verdicts.append(verdict)
            else:
                # a tail step has no draw of its own: it takes the law
                branch, draw = "tail", (law.cumulative, law.total)
            kinds.append(BRANCHES.index(branch))
            highs.append(0 if draw is None else draw[1])
            if draw is not None:
                if draw[1] > 1 << 63:
                    raise DomainError(f"integers range [0, {draw[1]}) is "
                                      f"wider than 2^63")
                # the excess law and the state's law of each node
                laws[2 * (key >> 2 if coupled else key)
                     + (branch == "excess")] = law.support, draw[0]
        kind = np.repeat(np.array(kinds, dtype=np.int8), sizes)
        branches[order, t] = kind
        step = exposed[:, t]
        if coupled:
            near[order, t] = np.repeat(verdicts, sizes)
            fresh = order[kind == 0]
            step[fresh] = proposal[fresh]
        for r in order[kind == 1].tolist():
            node = nodes[at[r]]
            _, _, e, _ = coupling_step(node.law, eps, edges[columns[r][t]],
                                       1, node.edges, proposed(r), t)
            step[r] = column(e)
        drawn = order[kind >= 2]
        if len(drawn):
            values = lanes.integers(np.repeat(np.array(highs, np.uint64),
                                              sizes)[kind >= 2], drawn)
            # located once per distinct law
            by, keys, starts, sizes = _runs(2 * at[drawn]
                                            + (kind[kind >= 2] == 2))
            drawn, values = drawn[by], values[by]
            alone, alone_columns = [], []
            for key, s, size in zip(keys, starts, sizes.tolist()):
                support, cumulative = laws[key]
                if size == 1:
                    alone.append(int(drawn[s]))
                    alone_columns.append(column(support[bisect_right(
                        cumulative, int(values[s]))]))
                    continue
                part = drawn[s:s + size]
                # the law's support is the absent edges, in pool order
                absent = (~held[part[0]]).nonzero()[0]
                assert len(absent) == len(support)
                step[part] = absent[np.array(
                    cumulative, dtype=np.uint64).searchsorted(
                    values[s:s + size], side="right")]
            step[alone] = alone_columns
        again = held[rows, step]
        if again.any():
            r = int(again.nonzero()[0][0])
            raise AssertionError(f"step {t} tried to re-expose "
                                 f"{edges[step[r]]}; conditional law broke")
        held[rows, step] = True
        if coupled:
            # the step-level guarantee: an accepted proposal under a
            # near-uniform verdict is on the regular side immediately after
            sure = (near[:, t] & coin).nonzero()[0]
            assert held[sure, proposal[sure]].all()
        if t + 1 < M:
            order, keys, _, sizes = _runs(at * C + step)
            children: dict = {}
            ids = [children.setdefault(
                tree.child(nodes[key // C], edges[key % C]), len(children))
                for key in keys]
            at[order] = np.repeat(ids, sizes)
            nodes = list(children)

    m = config.m
    enough = coins.sum(axis=1) >= m
    # the embedded proposals: the first m accepted ones, or the first m
    embedded = np.where(enough[:, None], coins & (coins.cumsum(axis=1) <= m),
                        np.arange(cut) < m)
    contained = (held[rows[:, None], proposals] | ~embedded).all(axis=1)
    # the guarantee the construction exists for; never bypassed
    assert contained[near.all(axis=1) & enough].all(), \
        "near-uniform accepted proposals escaped the regular graph"
    return CouplingLanes(config=config, proposals=proposals, coins=coins,
                         near=near, branches=branches, exposed=exposed,
                         contained=contained)


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
