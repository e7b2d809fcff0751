"""Correctness checks on a finished experiment's output files.

Every reference value here is computed by the benchmark itself, without
calling the package: family sizes by brute force or by a degree-vector
dynamic program, binomial and hypergeometric moments from their formulas.
Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction
from itertools import combinations

from workloads import Workload, option

# Standard scores beyond which a sample moment counts as wrong.  A
# couple-cold round has only eight traces of Binomial(6, 6/7), where the
# sample variance is far from normal: by exact enumeration a correct
# program passes its mean beyond 8 and its variance beyond 12 standard
# errors with probability 3e-8.  Residual means fail at 6.5 with
# probability about 1e-5 over all 7,140 per-vertex means of a round.
MEAN_Z = 6.5
ACCEPTED_MEAN_Z = 8.0
ACCEPTED_VAR_Z = 12.0
# TV bound failure chance for a uniform sampler (McDiarmid): 1e-9
TV_LOG_FAILURE = math.log(1e9)


def brute_force_family_size(n: int, k: int, d: int) -> int:
    """Count d-regular k-graphs on [n] by trying every M-subset of k-sets."""
    edges = list(combinations(range(n), k))
    M = n * d // k
    total = 0
    for chosen in combinations(edges, M):
        deg = [0] * n
        for e in chosen:
            for v in e:
                deg[v] += 1
        total += all(x == d for x in deg)
    return total


def dp_family_size(n: int, k: int, d: int, base=()) -> int:
    """Count d-regular k-graphs on [n] containing the edges `base`, edge by
    edge over degree vectors.

    Edges are taken in lexicographic order; once the edges whose least
    vertex is v are done, v can gain no more, so states where v is short
    are dropped.  Independent of the package's focus-vertex backtracker.
    """
    fixed = {tuple(x - 1 for x in e) for e in base}
    start = [0] * n
    for e in fixed:
        for v in e:
            start[v] += 1
    states = {tuple(start): 1}
    for v in range(n):
        for rest in combinations(range(v + 1, n), k - 1):
            e = (v,) + rest
            if e in fixed:
                continue
            grown = dict(states)
            for deg, count in states.items():
                if all(deg[w] < d for w in e):
                    nxt = list(deg)
                    for w in e:
                        nxt[w] += 1
                    key = tuple(nxt)
                    grown[key] = grown.get(key, 0) + count
            states = grown
        states = {deg: c for deg, c in states.items() if deg[v] == d}
    return sum(states.values())


def _read(out: str) -> tuple[dict, list[dict]]:
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    rows: list[dict] = []
    path = os.path.join(out, "rows.csv")
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    return summary, rows


def _instance(argv) -> tuple[int, int, int]:
    return tuple(int(option(argv, f)) for f in ("--n", "--k", "--d"))


def _base(argv) -> list[tuple[int, ...]]:
    if "--base" not in argv:
        return []
    return [tuple(int(x) for x in part.split(","))
            for part in option(argv, "--base").split(";")]


def items(argv) -> int:
    """Items one round finishes: traces, exposures or family members."""
    if argv[0] == "switching-verify":
        return dp_family_size(*_instance(argv), _base(argv))
    return int(option(argv, "--trials"))


def check_round(w: Workload, argv: list[str], out: str) -> list[str]:
    summary, rows = _read(out)
    if argv[0] == "couple":
        return _check_couple(w, argv, summary, rows)
    if argv[0] == "process-stats":
        return _check_process(argv, summary, rows)
    return _check_switching(argv, summary, rows)


def _check_couple(w: Workload, argv, summary: dict,
                  rows: list[dict]) -> list[str]:
    n, k, d = _instance(argv)
    gamma = Fraction(option(argv, "--gamma"))
    M = n * d // k
    j = math.floor(M * gamma / 3)          # epsilon = largest j/M <= gamma/3
    m = round((1 - gamma) * M)
    steps = M - j                          # coupled horizon (1 - eps) M
    p = 1 - Fraction(j, M)                 # coin success chance
    fails: list[str] = []
    trials = int(option(argv, "--trials"))
    if len(rows) != trials or summary["trials"] != trials:
        fails.append(f"expected {trials} trace rows, got {len(rows)}")
        return fails
    if summary["m"] != m or Fraction(summary["epsilon"]).limit_denominator(M) \
            != Fraction(j, M):
        fails.append(f"summary m/epsilon {summary['m']}/{summary['epsilon']} "
                     f"differ from {m}/{j}/{M}")
    sizes = []
    for r in rows:
        acc = int(r["accepted"])
        sizes.append(acc)
        if int(r["fallback"]) != int(acc < m):
            fails.append(f"trial {r['trial']}: fallback={r['fallback']} "
                         f"with accepted={acc}, m={m}")
        if int(r["A_all"]) == 1 and acc >= m and int(r["contained"]) != 1:
            fails.append(f"trial {r['trial']}: near-uniform with enough "
                         f"accepted proposals but not contained")
    # accepted count ~ Binomial(steps, p), exactly
    q = 1 - p
    mu = steps * p
    var = steps * p * q
    mu4 = var * (1 + 3 * (steps - 2) * p * q)
    N = len(sizes)
    mean = Fraction(sum(sizes), N)
    s2 = sum((x - mean) ** 2 for x in sizes) / (N - 1)
    z_mean = float(mean - mu) / math.sqrt(var / N)
    var_s2 = (mu4 - var * var * Fraction(N - 3, N - 1)) / N
    z_var = float(s2 - var) / math.sqrt(var_s2)
    for label, z, limit in (("mean", z_mean, ACCEPTED_MEAN_Z),
                            ("variance", z_var, ACCEPTED_VAR_Z)):
        if abs(z) > limit:
            fails.append(f"accepted-count {label} is {z:.2f} standard errors "
                         f"from Binomial({steps}, {p})")
    if w.name == "couple-warm":
        fails += _check_tv(summary["tv_checks"], n, k, d, N)
    return fails


def _check_tv(tv: dict | None, n: int, k: int, d: int, N: int) -> list[str]:
    size = brute_force_family_size(n, k, d)
    if tv is None:
        return ["summary has no tv_checks"]
    fails = []
    if tv["family_size"] != size or tv["support_seen"] != size:
        fails.append(f"family_size={tv['family_size']} support_seen="
                     f"{tv['support_seen']}, brute force counts {size}")
    # E[TV] <= sqrt(size/N)/2 for a uniform sampler; one trace moves TV by
    # at most 1/N, so TV exceeds the bound with chance below 1e-9
    bound = 0.5 * math.sqrt(size / N) + math.sqrt(TV_LOG_FAILURE / (2 * N))
    if tv["tv_final_regular"] > bound:
        fails.append(f"TV of final graphs {tv['tv_final_regular']} exceeds "
                     f"{bound:.4f}")
    return fails


def _check_process(argv, summary: dict, rows: list[dict]) -> list[str]:
    n, k, d = _instance(argv)
    M = n * d // k
    trials = int(option(argv, "--trials"))
    fails: list[str] = []
    if summary["trials"] != trials or len(rows) != M + 1:
        return [f"expected {trials} trials and {M + 1} rows, got "
                f"{summary['trials']} and {len(rows)}"]
    for r in rows:
        t = int(r["t"])
        lo, hi = float(r["emp_mean_min"]), float(r["emp_mean_max"])
        if t in (0, M):
            want = d if t == 0 else 0
            if lo != want or hi != want:
                fails.append(f"row {t}: residual means {lo}..{hi}, "
                             f"must be exactly {want}")
            continue
        mean = (M - t) * d / M
        var = t * (d / M) * (1 - d / M) * (M - t) / (M - 1)
        se = math.sqrt(var / trials)
        for value in (lo, hi):
            if abs(value - mean) > MEAN_Z * se:
                fails.append(f"row {t}: residual mean {value} is "
                             f"{(value - mean) / se:.2f} standard errors "
                             f"from {mean:.4f}")
    return fails


def _check_switching(argv, summary: dict, rows: list[dict]) -> list[str]:
    size = items(argv)
    fails: list[str] = []
    if summary["family_size"] != size:
        fails.append(f"family_size={summary['family_size']}, degree-vector "
                     f"count gives {size}")
    if sum(int(r["size"]) for r in rows) != size:
        fails.append("class sizes do not add up to the family size")
    if summary["balanced"] is not True:
        fails.append("forward and backward switching sums disagree")
    interval = summary["interval"] or {}
    if interval.get("bottom") != 0 or interval.get("is_interval") is not True:
        fails.append(f"class-size interval {interval} is not [0, top] "
                     f"without gaps")
    return fails


def check_regular_graph(edges, n: int, k: int, d: int) -> str | None:
    """A final exposed graph must be simple, d-regular and have M edges."""
    M = n * d // k
    deg = [0] * (n + 1)
    for e in edges:
        if len(e) != k or len(set(e)) != k or not all(1 <= v <= n for v in e):
            return f"edge {e} is not a {k}-set of [1, {n}]"
        for v in e:
            deg[v] += 1
    if len(edges) != M or len({tuple(sorted(e)) for e in edges}) != M:
        return f"final graph has {len(edges)} edges, not {M} distinct ones"
    if any(x != d for x in deg[1:]):
        return f"final graph is not {d}-regular"
    return None
