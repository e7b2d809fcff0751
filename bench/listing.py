"""Listing speed of the completion sweep, in nodes per second, and the
time of the completion count.

    python3 bench/listing.py --out BENCH_<n>.json

Run from the repository root; it imports the package from `src/`.  For
each instance it lists the completion family with `count_extensions`
REPEATS times in this process (one warm-up call first) and reports the
median wall time, the median nodes per second (`nodes_used` over that
time), and the median time of unpacking the family's `tails` on a fresh
family.  For each count it
times `completion_count` REPEATS times the same way and reports the count,
or the refusal's message.  It also records the machine.  Only
`time.perf_counter` and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

from hypercouple import (  # noqa: E402
    OracleBudgetError,
    OrderedHypergraph,
    Params,
    completion_count,
    count_extensions,
)

# (n, k, d) and prefix edges: the switching-family base, the first-edge
# family of couple-cold, and two whole families
INSTANCES = [
    ((9, 3, 2), [(3, 4, 5)]),
    ((7, 3, 3), [(1, 2, 3)]),
    ((7, 3, 3), []),
    ((8, 2, 3), []),
]
# (n, k, d) and whether the count is U1, through the first edge (1..k),
# or U0, of the empty prefix: counts, then the refusals of a layer past
# the state cap and of codes past int64
COUNTS = [
    ((9, 3, 2), True),
    ((9, 3, 2), False),
    ((12, 3, 2), True),
    ((12, 2, 3), False),
    ((15, 3, 2), True),
    ((18, 3, 2), True),
    ((60, 3, 6), False),
]
# listings and counts timed per instance, after one warm-up call
REPEATS = 9


def measure(nkd, edges) -> dict:
    params = Params(*nkd)
    prefix = OrderedHypergraph(params.n, params.k, edges)
    count_extensions(prefix, params)
    list_s, tails_s = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fam = count_extensions(prefix, params)
        list_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        fam.tails
        tails_s.append(time.perf_counter() - start)
    median = statistics.median(list_s)
    return {
        "n": params.n, "k": params.k, "d": params.d,
        "prefix": [list(e) for e in edges],
        "rows": fam.unordered_count, "nodes": fam.nodes_used,
        "repeats": REPEATS,
        "list_ms": round(1e3 * median, 3),
        "list_ms_quartiles": [round(1e3 * q, 3) for q in
                              statistics.quantiles(list_s, n=4)[::2]],
        "nodes_per_s": round(fam.nodes_used / median),
        "tails_ms": round(1e3 * statistics.median(tails_s), 3),
    }


def measure_count(nkd, through_first: bool) -> dict:
    params = Params(*nkd)
    edges = [tuple(range(1, params.k + 1))] if through_first else []
    prefix = OrderedHypergraph(params.n, params.k, edges)

    def count():
        try:
            return completion_count(prefix, params)
        except OracleBudgetError as exc:
            return str(exc)

    count()
    count_s = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = count()
        count_s.append(time.perf_counter() - start)
    return {
        "n": params.n, "k": params.k, "d": params.d,
        "prefix": [list(e) for e in edges],
        "count" if type(result) is int else "refused": result,
        "repeats": REPEATS,
        "count_ms": round(1e3 * statistics.median(count_s), 3),
        "count_ms_quartiles": [round(1e3 * q, 3) for q in
                               statistics.quantiles(count_s, n=4)[::2]],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True,
                    help="JSON file to write, e.g. BENCH_<n>.json")
    args = ap.parse_args()
    result = {
        "benchmark": "listing",
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "instances": [measure(nkd, edges)
                      for nkd, edges in INSTANCES],
        "counts": [measure_count(nkd, through_first)
                   for nkd, through_first in COUNTS],
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
