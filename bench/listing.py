"""Listing speed of the completion sweep, in nodes per second.

    python3 bench/listing.py --out BENCH_<n>.json

Run from the repository root; it imports the package from `src/`.  For
each instance it lists the completion family with
`count_extensions(..., list_completions=True)` REPEATS times in this
process (one warm-up call first) and reports the median wall time, the
median nodes per second (`nodes_used` over that time), and the median time
of unpacking the family's `tails` on a fresh family.  It also records the
machine.  Only `time.perf_counter` and numpy are used.
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
    OrderedHypergraph,
    Params,
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
# listings timed per instance, after one warm-up listing
REPEATS = 9


def measure(nkd, edges) -> dict:
    params = Params(*nkd)
    prefix = OrderedHypergraph(params.n, params.k, edges)
    count_extensions(prefix, params, list_completions=True)
    list_s, tails_s = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fam = count_extensions(prefix, params, list_completions=True)
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
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
