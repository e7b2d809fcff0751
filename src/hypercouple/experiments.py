"""Batch experiment runner and command line interface.

Every experiment is a (kind, options, seed, trials, jobs) tuple.  Trials are
independent: trial i draws all of its randomness from the stream
(seed, (i,)), which `RngStream.trials` seeds for every trial in one pass in
the parent process, so results do not depend on how trials are spread over
worker processes, and aggregation walks trials in index order so floating-point
reductions are width-independent.  Data outputs (summary.json, rows.csv,
*.edges) are byte-deterministic for a fixed config and seed; wall-clock time
and output digests live only in manifest.json, which is the one file allowed
to differ between identical runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterator

import numpy as np

from . import __version__
from .core import (
    DomainError,
    OrderedHypergraph,
    Params,
    format_edge_list,
)
from .coupling import (
    BRANCHES,
    CouplingConfig,
    CouplingLanes,
    choose_epsilon,
    run_coupling,
    run_coupling_gnp,
    run_coupling_lanes,
)
from .hamilton import _check_cycle_shape, hamiltonicity_sweep
from .oracle import (
    KINDS as SWITCHING_KINDS,
    OracleBudgetError,
    completion_count,
    extension_family,
    prefix_tree,
    switching_class_sizes,
    switching_target,
)
from .process import residual_report
from .samplers import (
    Pcg64Lanes,
    RejectionBudgetError,
    RngStream,
    sample_gnm,
    sample_gnp,
    sample_regular,
    simplicity_from_completions,
)
from .stats import tv_distance_uniform, wilson_interval
from .switchings import backward_count, forward_count

SCHEMA_VERSION = 1
KINDS = ("sample", "couple", "couple-gnp", "process-stats", "switching-verify",
         "hamilton-sweep", "oracle-dump", "validate-params")

# families larger than this are not enumerated for coupling TV checks
_TV_FAMILY_LIMIT = 20_000


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    trials: int = 1
    jobs: int = 1
    out: str | None = None
    fmt: str = "csv"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"unknown experiment kind {self.kind!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.jobs < 1:
            raise DomainError("jobs must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.fmt!r}")


@dataclass
class RunManifest:
    """Record of one run.  Everything here except wall_clock_s and digests is
    reproducible; data files listed in digests are byte-stable."""

    kind: str
    config: dict
    version: str
    rng_scheme: str
    wall_clock_s: float
    digests: dict[str, str]


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")


def _csv_bytes(columns: list[str], rows: list[tuple]) -> bytes:
    out = [",".join(columns)]
    out += [",".join(["" if x is None else str(x) for x in row])
            for row in rows]
    return ("\n".join(out) + "\n").encode("ascii")


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parallel(worker, payloads: list, jobs: int) -> Iterator:
    """Worker results in payload order, yielded as they are consumed.  Forked
    workers inherit what the parent has enumerated (the prefix tree)."""
    if jobs <= 1 or len(payloads) <= 1:
        yield from map(worker, payloads)
        return
    chunk = max(1, len(payloads) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        yield from ex.map(worker, payloads, chunksize=chunk)


def _mean_var(values: list[float]) -> tuple[float, float]:
    n = len(values)
    m = sum(values) / n
    var = sum((x - m) ** 2 for x in values) / (n - 1) if n > 1 else 0.0
    return m, var


def _wilson_dict(successes: int, trials: int) -> dict:
    lo, hi = wilson_interval(successes, trials)
    return {"rate": successes / trials, "ci_lo": round(lo, 6),
            "ci_hi": round(hi, 6)}


# ---------------------------------------------------------------- sample ---

def _sample_worker(payload) -> str:
    model, n, k, d, m, p, rng = payload
    if model == "regular":
        g = sample_regular(OrderedHypergraph(n, k), Params(n, k, d), rng)
        return format_edge_list(g, d=d)
    if model == "gnm":
        return format_edge_list(sample_gnm(n, k, m, rng))
    return format_edge_list(sample_gnp(n, k, p, rng))


def _run_sample(cfg: ExperimentConfig) -> tuple[dict, list, list[tuple[str, bytes]]]:
    o = cfg.options
    model = o.get("model", "regular")
    n, k = o["n"], o["k"]
    # validate early, in the parent process
    needs = {"regular": "d", "gnm": "m", "gnp": "p"}.get(model)
    if needs is None:
        raise DomainError(f"unknown sample model {model!r}")
    if o.get(needs) is None:
        raise DomainError(f"model {model} needs --{needs}")
    if model == "regular":
        Params(n, k, o["d"])
    elif model == "gnm" and not 0 <= o["m"] <= math.comb(n, k):
        raise DomainError(f"m={o['m']} outside 0..C(n,k)")
    payloads = [(model, n, k, o.get("d"), o.get("m"), o.get("p"), rng)
                for rng in RngStream.trials(cfg.seed, cfg.trials)]
    texts = list(_parallel(_sample_worker, payloads, cfg.jobs))
    files = [(f"sample_{i:04d}.edges", t.encode("ascii"))
             for i, t in enumerate(texts)]
    counts = [t.count("\n") - 1 for t in texts]  # minus the header line
    summary = {
        "kind": "sample", "model": model, "n": n, "k": k,
        "d": o.get("d"), "m": o.get("m"), "p": o.get("p"),
        "trials": cfg.trials, "edge_counts_min": min(counts),
        "edge_counts_max": max(counts),
    }
    rows = [(i, c) for i, c in enumerate(counts)]
    return summary, [("trial", "edges")] + rows, files


# ---------------------------------------------------------------- couple ---

def _parse_p_mode(raw: str) -> tuple[str, int]:
    if raw == "exact":
        return "exact", 0
    if raw.startswith("mc:"):
        try:
            return "mc", int(raw[3:])
        except ValueError:
            pass
    raise DomainError(f"p-mode must be 'exact' or 'mc:<trials>', got {raw!r}")


def _couple_config(o: dict) -> CouplingConfig:
    params = Params(o["n"], o["k"], o["d"])
    gamma = o["gamma"]
    eps = o.get("epsilon")
    if eps is None:
        eps = choose_epsilon(params, gamma)
    mode, mc_trials = _parse_p_mode(o.get("p_mode", "exact"))
    return CouplingConfig(params=params, gamma=gamma, epsilon=eps,
                          p_mode=mode, mc_trials=mc_trials)


def _couple_worker(payload):
    cc, p, rng, gnp, emit = payload
    if gnp:
        tr = run_coupling_gnp(cc, rng, p=p)
        base = tr.base
        extra = (tr.edge_count, tr.independent_fallback, tr.contained)
    else:
        base = run_coupling(cc, rng)
        extra = None
    steps = [(s.index, s.coin, s.near_uniform, s.branch)
             for s in base.steps] if emit else None
    final = tuple(sorted(base.regular_final.edge_set))
    return (base.contained, base.near_uniform_all, base.certain,
            len(base.accepted), base.used_fallback, final, extra, steps)


def _lanes_worker(payload) -> CouplingLanes:
    cc, seed, start, count = payload
    return run_coupling_lanes(cc, Pcg64Lanes(seed, count, start=start))


def _walk_lanes(cfg: ExperimentConfig, cc: CouplingConfig) -> CouplingLanes:
    """Every trial of an exact `couple` run as a lane of
    `run_coupling_lanes`, in `cfg.jobs` contiguous chunks.  Trial 0 is also
    walked alone by `run_coupling`, and must give lane 0's trace: the lanes
    are checked on every run, and a traced run sees a real trace."""
    bounds = [cfg.trials * j // cfg.jobs for j in range(cfg.jobs + 1)]
    payloads = [(cc, cfg.seed, lo, hi - lo)
                for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    walk = CouplingLanes.concat(list(_parallel(_lanes_worker, payloads,
                                               cfg.jobs)))
    if walk.trace(0) != run_coupling(cc, RngStream(cfg.seed, (0,))):
        raise AssertionError("lane 0 left the trace run_coupling walks for "
                             "trial 0")
    return walk


def _run_couple(cfg: ExperimentConfig, gnp: bool):
    o = dict(cfg.options)
    cc = _couple_config(o)  # validated once, handed to every worker
    emit = bool(o.get("emit_traces"))
    if cc.p_mode == "exact":
        tree = prefix_tree(cc.params)  # built once, before the fork
    if cc.p_mode == "exact" and not gnp:
        walk = _walk_lanes(cfg, cc)
        contained, near_all = walk.contained.tolist(), \
            walk.near_uniform_all.tolist()
        sizes = walk.accepted.tolist()
        certain = True
        # the final graphs as rows of sorted pool columns, counted in the
        # order each is first seen
        finals = np.sort(walk.exposed, axis=1)
        graphs = finals.view(np.dtype((np.void,
                                       finals.itemsize * cc.params.M)))
        _, first, counts = np.unique(graphs.ravel(), return_index=True,
                                     return_counts=True)
        finals_seen = counts[np.argsort(first)].tolist()
    else:
        payloads = [(cc, o.get("p"), rng, gnp, emit)
                    for rng in RngStream.trials(cfg.seed, cfg.trials)]
        results = list(_parallel(_couple_worker, payloads, cfg.jobs))
        contained = [r[0] for r in results]
        near_all = [r[1] for r in results]
        certain = all(r[2] for r in results)
        sizes = [r[3] for r in results]
        seen: dict = {}
        for r in results:
            seen[r[5]] = seen.get(r[5], 0) + 1
        finals_seen = list(seen.values())
    fallback = [s < cc.m for s in sizes]
    mean, var = _mean_var([float(s) for s in sizes])

    tv_checks = None
    if cc.p_mode == "exact":
        size = tree.family_size
    else:
        # mc runs list nothing: they count the U1 graphs through the first
        # edge (1..k), and U0 = C * U1 / M, as in `PrefixTree`
        first = OrderedHypergraph(cc.params.n, cc.params.k,
                                  [tuple(range(1, cc.params.k + 1))])
        try:
            size = (completion_count(first, cc.params)
                    * cc.params.complete_count // cc.params.M)
        except OracleBudgetError as exc:
            # the finished trials stand; only the uniformity check is dropped
            size, tv_checks = 0, {"skipped": str(exc)}
    if 0 < size <= _TV_FAMILY_LIMIT:
        tv_checks = {
            "family_size": size,
            "support_seen": len(finals_seen),
            "tv_final_regular": round(tv_distance_uniform(
                dict(enumerate(finals_seen)), size), 6),
        }

    mean_expected, var_expected, chebyshev = cc.accepted_yardsticks
    summary = {
        "kind": cfg.kind, "schema_version": SCHEMA_VERSION,
        "interval_method": "wilson-95",
        "n": cc.params.n, "k": cc.params.k, "d": cc.params.d,
        "gamma": o["gamma"], "epsilon": float(cc.epsilon), "m": cc.m,
        "p_mode": cc.p_mode, "trials": cfg.trials,
        "contained_rate": _wilson_dict(sum(contained), cfg.trials),
        "A_all_rate": _wilson_dict(sum(near_all), cfg.trials),
        "S_lt_m_rate": _wilson_dict(sum(fallback), cfg.trials),
        "fallback_rate": _wilson_dict(sum(fallback), cfg.trials),
        "verdicts_certain": certain,
        "accepted_mean": round(mean, 6), "accepted_var": round(var, 6),
        "accepted_mean_expected": mean_expected,
        "accepted_var_expected": var_expected,
        "chebyshev_bound_S_lt_m": chebyshev,
        "tv_checks": tv_checks,
    }
    if gnp:
        bs = [r[6][0] for r in results]
        bmean, bvar = _mean_var([float(b) for b in bs])
        summary["p"] = o.get("p")
        summary["B_mean"] = round(bmean, 6)
        summary["B_var"] = round(bvar, 6)
        summary["independent_fallback_rate"] = _wilson_dict(
            sum(r[6][1] for r in results), cfg.trials)
        summary["gnp_contained_rate"] = _wilson_dict(
            sum(r[6][2] for r in results), cfg.trials)

    if not emit:
        columns = ["trial", "accepted", "contained", "A_all", "fallback"]
        rows = list(zip(range(cfg.trials), sizes, map(int, contained),
                        map(int, near_all), map(int, fallback)))
        return summary, [tuple(columns)] + rows, []
    columns = ["trial", "t", "xi", "A_t", "branch"]
    rows: list[tuple] = []
    if cc.p_mode == "exact" and not gnp:
        cut, M = cc.coupled_steps, cc.params.M
        coins, near = walk.coins.tolist(), walk.near.tolist()
        for i, kinds in enumerate(walk.branches.tolist()):
            rows.extend((i, t, int(coins[i][t]), int(near[i][t]),
                         BRANCHES[kinds[t]]) for t in range(cut))
            rows.extend((i, t, None, None, BRANCHES[kinds[t]])
                        for t in range(cut, M))
    else:
        for i, r in enumerate(results):
            for (t, coin, near, branch) in r[7]:
                rows.append((i, t,
                             None if coin is None else int(coin),
                             None if near is None else int(near), branch))
    return summary, [tuple(columns)] + rows, []


# --------------------------------------------------------- process-stats ---

def _process_worker(payload):
    params, rng, a = payload
    return residual_report(params, 1, rng, a=a)


def _run_process_stats(cfg: ExperimentConfig):
    o = cfg.options
    params = Params(o["n"], o["k"], o["d"])
    # one exposure per trial; the reports add up in trial order
    payloads = [(params, rng, o.get("a"))
                for rng in RngStream.trials(cfg.seed, cfg.trials)]
    rep = reduce(operator.add, _parallel(_process_worker, payloads, cfg.jobs))
    zmax = np.abs(rep.z_scores()).max(axis=1)
    emp_mean = rep.emp_mean
    rows: list[tuple] = [("t", "exact_mean", "exact_var", "emp_mean_min",
                          "emp_mean_max", "max_abs_z", "envelope_exceed")]
    for t in range(params.M + 1):
        rows.append((t, round(float(rep.exact_mean[t]), 6),
                     round(float(rep.exact_var[t]), 6),
                     round(float(emp_mean[t].min()), 6),
                     round(float(emp_mean[t].max()), 6),
                     round(float(zmax[t]), 4),
                     round(float(rep.envelope_exceed[t]), 6)))
    summary = {
        "kind": "process-stats", "schema_version": SCHEMA_VERSION,
        "n": params.n, "k": params.k, "d": params.d, "trials": cfg.trials,
        "max_abs_mean_z": round(rep.max_abs_mean_z(), 4),
        "envelope_a": rep.a,
        "envelope_exceed_rate": round(rep.overall_exceed_rate, 6),
    }
    return summary, rows, []


# ------------------------------------------------------- switching-verify --

def _run_switching_verify(cfg: ExperimentConfig):
    o = cfg.options
    params = Params(o["n"], o["k"], o["d"])
    kind = o["switch_kind"]
    base = OrderedHypergraph(params.n, params.k, o.get("base_edges", []))
    u, v = o.get("u", 0), o.get("v", 0)
    target = switching_target(kind, params.n, params.k, edge=o.get("edge"),
                              pair=(u, v))
    if kind != "remove_edge":
        sizes = switching_class_sizes(base, u, v, kind, params)
    fam = extension_family(base, params)
    if not fam.admissible:
        raise DomainError("base prefix admits no completions")

    # each class goes to the counting kernels whole, as a restricted family
    if kind == "remove_edge":
        having = fam.holds(target)
        upper, lower = fam.restrict(having), fam.restrict(~having)
        fsum = forward_count(upper, base, kind, edge=target)
        bsum = backward_count(lower, base, kind, edge=target)
        rows = [("class", "size", "forward_sum", "backward_sum"),
                (1, upper.unordered_count, fsum, None),
                (0, lower.unordered_count, None, bsum)]
        balanced = fsum == bsum
        interval = None
    else:
        values = np.array(sizes.values, dtype=np.int64)
        rows = [("class", "size", "forward_sum", "backward_sum")]
        balanced = True
        # class ell is counted forward, then backward as class ell + 1's
        # lower neighbour, so each class is restricted and its membership
        # rows built once; class ell - 1 is counted and let go before class
        # ell is restricted, so one class is held at a time
        lower = fam.restrict(values == sizes.bottom - 1)
        for ell in range(sizes.bottom, sizes.top + 1):
            counted = ell in sizes.unordered_sizes
            if counted:
                bsum = backward_count(lower, base, kind, pair=target)
            lower = fam.restrict(values == ell)
            if counted:
                fsum = forward_count(lower, base, kind, pair=target)
                balanced &= fsum == bsum
                rows.append((ell, sizes.unordered_sizes[ell], fsum, bsum))
        interval = {"bottom": sizes.bottom, "top": sizes.top,
                    "is_interval": sizes.is_interval}
    summary = {
        "kind": "switching-verify", "schema_version": SCHEMA_VERSION,
        "n": params.n, "k": params.k, "d": params.d,
        "switch_kind": kind, "u": u or None, "v": v or None,
        "family_size": fam.unordered_count, "balanced": balanced,
        "interval": interval,
    }
    return summary, rows, []


# --------------------------------------------------------- hamilton-sweep --

def _sweep_worker(payload):
    n, k, ell, d, trials, seed = payload
    pts = hamiltonicity_sweep(n, k, ell, [d], trials, RngStream(seed))
    return pts[0]


def _run_hamilton_sweep(cfg: ExperimentConfig):
    o = cfg.options
    n, k, ell = o["n"], o["k"], o["ell"]
    _check_cycle_shape(n, k, ell)
    d_values = o["d_values"]
    if len(set(d_values)) < len(d_values):  # one p_hat entry per degree
        raise DomainError(f"--d-list repeats a degree: {list(d_values)}")
    for d in d_values:
        Params(n, k, d)
    payloads = [(n, k, ell, d, cfg.trials, cfg.seed) for d in d_values]
    # parallel across d points; trials within a point share the worker
    points = list(_parallel(_sweep_worker, payloads, cfg.jobs))
    rows = [("d", "trials", "ham", "none", "unknown", "p_hat", "ci_lo",
             "ci_hi")]
    for p in points:
        rows.append((p.d, p.trials, p.found, p.none, p.unknown,
                     round(p.p_hat, 6), round(p.ci_lo, 6), round(p.ci_hi, 6)))
    summary = {
        "kind": "hamilton-sweep", "schema_version": SCHEMA_VERSION,
        "interval_method": "wilson-95",
        "n": n, "k": k, "ell": ell, "d_values": list(d_values),
        "trials": cfg.trials,
        "p_hat": {str(p.d): round(p.p_hat, 6) for p in points},
        "unknown_total": sum(p.unknown for p in points),
    }
    return summary, rows, []


# ------------------------------------------------------------ oracle-dump --

def _run_oracle_dump(cfg: ExperimentConfig):
    o = cfg.options
    params = Params(o["n"], o["k"], o["d"])
    base = OrderedHypergraph(params.n, params.k, o.get("base_edges", []))
    fam = extension_family(base, params)
    rows: list[tuple] = [("edge", "completions", "probability")]
    law = None
    if fam.admissible and len(base) < params.M:
        law = fam.state(fam.base)
        for e, w in zip(law.support, law.weights):
            pr = Fraction(w, law.total)
            rows.append(("-".join(map(str, e)), w,
                         f"{pr.numerator}/{pr.denominator}"))
    # the count identity on the family just listed; the direct enumeration
    # of ordered tails walks (M-t)! times as many nodes
    psimple = simplicity_from_completions(base, params, fam.unordered_count)
    summary = {
        "kind": "oracle-dump", "schema_version": SCHEMA_VERSION,
        "n": params.n, "k": params.k, "d": params.d,
        "base_edges": [list(e) for e in base.edges],
        "admissible": fam.admissible,
        "unordered_completions": fam.unordered_count,
        "ordered_completions": fam.ordered_count,
        "simplicity_probability": f"{psimple.numerator}/{psimple.denominator}",
        "min_next_edge_ratio": None if law is None else str(law.min_ratio),
    }
    return summary, rows, []


# --------------------------------------------------------- validate-params -

def validate_gamma_epsilon(n: int, k: int, d: int, gamma: float,
                           C: float = 1.0) -> dict:
    """Advisory feasibility report for the (gamma, epsilon) choice.

    Evaluates C * ((d/n^(k-1) + log(n)/d)^(1/3) + 1/n) against gamma (must
    also be < 1 strictly), suggests the largest epsilon = j/M <= gamma/3,
    and notes that for k <= 7 the 1/n term is dominated by the cube-root
    term.  Nothing here is asserted by the library; the constants are
    existential in the source of truth.
    """
    params = Params(n, k, d)
    term = (d / n ** (k - 1) + math.log(n) / d) ** (1.0 / 3.0)
    lhs = C * (term + 1.0 / n)
    feasible = lhs <= gamma < 1.0
    report = {
        "kind": "validate-params", "schema_version": SCHEMA_VERSION,
        "n": n, "k": k, "d": d, "gamma": gamma, "C": C,
        "lhs": round(lhs, 9), "cube_root_term": round(term, 9),
        "one_over_n": round(1.0 / n, 9),
        "feasible": feasible,
        "k_le_7_note": ("for k <= 7 the cube-root term alone dominates 1/n"
                        if k <= 7 else None),
    }
    try:
        eps = choose_epsilon(params, gamma)
    except DomainError as exc:
        report["suggested_epsilon"] = None
        report["epsilon_error"] = str(exc)
        return report
    try:
        m = CouplingConfig(params, gamma=gamma, epsilon=eps).m
    except DomainError:  # (1-gamma)*M is not a positive integer
        m = None
    report["suggested_epsilon"] = float(eps)
    report["epsilon_fraction"] = f"{eps * params.M}/{params.M}"
    report["m"] = m
    report["m_integral"] = m is not None
    return report


def _run_validate_params(cfg: ExperimentConfig):
    o = cfg.options
    rep = validate_gamma_epsilon(o["n"], o["k"], o["d"], o["gamma"],
                                 o.get("C", 1.0))
    rows = [("key", "value")] + [(k2, rep[k2]) for k2 in sorted(rep)]
    return rep, rows, []


# ------------------------------------------------------------- dispatcher --

_RUNNERS = {
    "sample": _run_sample,
    "couple": lambda cfg: _run_couple(cfg, gnp=False),
    "couple-gnp": lambda cfg: _run_couple(cfg, gnp=True),
    "process-stats": _run_process_stats,
    "switching-verify": _run_switching_verify,
    "hamilton-sweep": _run_hamilton_sweep,
    "oracle-dump": _run_oracle_dump,
    "validate-params": _run_validate_params,
}


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute one experiment; write data files and the manifest if an
    output directory is configured, else print the summary."""
    start = time.monotonic()
    summary, rows, files = _RUNNERS[cfg.kind](cfg)
    digests: dict[str, str] = {}
    outputs: list[tuple[str, bytes]] = [("summary.json", _json_bytes(summary))]
    if cfg.fmt == "csv" and len(rows) > 1:
        outputs.append(("rows.csv", _csv_bytes(list(rows[0]), rows[1:])))
    outputs.extend(files)
    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
        for name, data in outputs:
            _atomic_write(os.path.join(cfg.out, name), data)
            digests[name] = _digest(data)
    manifest = RunManifest(
        kind=cfg.kind,
        config={"kind": cfg.kind, "seed": cfg.seed, "trials": cfg.trials,
                "jobs": cfg.jobs, "format": cfg.fmt,
                "options": {k2: v for k2, v in sorted(cfg.options.items())}},
        version=__version__,
        rng_scheme="seedsequence-pcg64 trial-i=(seed,(i,))",
        wall_clock_s=round(time.monotonic() - start, 3),
        digests=digests,
    )
    if cfg.out is not None:
        _atomic_write(os.path.join(cfg.out, "manifest.json"),
                      _json_bytes(manifest.__dict__))
    else:
        sys.stdout.write(_json_bytes(summary).decode("ascii"))
    return manifest


# -------------------------------------------------------------------- CLI --

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                    default="csv")


def _ints_arg(raw: str) -> tuple[int, ...]:
    # "1,2,3" -> (1, 2, 3)
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}") from None


def _edges_arg(raw: str) -> list[tuple[int, ...]]:
    # "1,2,3;2,4,6" -> [(1,2,3), (2,4,6)]
    return [_ints_arg(part) for part in raw.split(";") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypercouple",
        description="random regular hypergraph coupling laboratory",
    )
    sub = ap.add_subparsers(dest="kind", required=True)

    sp = sub.add_parser("sample", help="draw graphs and write edge lists")
    sp.add_argument("--model", choices=("regular", "gnm", "gnp"),
                    default="regular")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--p", type=float)
    _add_common(sp)

    for name in ("couple", "couple-gnp"):
        sp = sub.add_parser(name, help="run the joint exposure")
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--gamma", type=float, required=True)
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--p-mode", dest="p_mode", default="exact")
        sp.add_argument("--traces", type=int, default=None,
                        help="alias for --trials")
        sp.add_argument("--emit-traces", action="store_true")
        if name == "couple-gnp":
            sp.add_argument("--p", type=float)
        _add_common(sp)

    sp = sub.add_parser("process-stats", help="residual degree trajectories")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--a", type=float, default=None,
                    help="envelope constant (default 3(k+2))")
    _add_common(sp)

    sp = sub.add_parser("switching-verify",
                        help="exact double counting over a family")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--switch-kind", dest="switch_kind", required=True,
                    choices=SWITCHING_KINDS)
    sp.add_argument("--u", type=int, default=0)
    sp.add_argument("--v", type=int, default=0)
    sp.add_argument("--edge", type=_ints_arg, default=None,
                    help="comma-separated vertices for remove_edge")
    sp.add_argument("--base", dest="base_edges", type=_edges_arg,
                    default=None,
                    help="semicolon-separated base edges, e.g. '1,2,3;2,3,4'")
    _add_common(sp)

    sp = sub.add_parser("hamilton-sweep", help="Hamiltonicity across degrees")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--d-list", dest="d_values", type=_ints_arg,
                    required=True, help="comma-separated degrees")
    _add_common(sp)

    sp = sub.add_parser("oracle-dump", help="exact counts and next-edge law")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--base", dest="base_edges", type=_edges_arg,
                    default=None)
    _add_common(sp)

    sp = sub.add_parser("validate-params", help="gamma/epsilon advisory")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--C", type=float, default=1.0)
    _add_common(sp)

    return ap


def config_from_args(argv: list[str]) -> ExperimentConfig:
    opts = vars(build_parser().parse_args(argv))
    common = {key: opts.pop(key)
              for key in ("kind", "seed", "trials", "jobs", "out", "fmt")}
    traces = opts.pop("traces", None)
    if traces is not None:
        common["trials"] = traces
    return ExperimentConfig(**common, options={
        key: value for key, value in opts.items() if value is not None})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = config_from_args(argv)
    except DomainError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except SystemExit as exc:          # argparse reports its own errors
        return 2 if exc.code not in (0, None) else 0
    try:
        run_experiment(cfg)
    except DomainError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (OracleBudgetError, RejectionBudgetError) as exc:
        # scale errors, not crashes: the request outran an explicit budget
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return 2
    except Exception as exc:           # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"runtime error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
