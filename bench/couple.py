"""Exact `couple` walks: the scalar loop against the lanes.

    python3 bench/couple.py --out BENCH_<n>.json [--repeats R]

Run from the repository root; it imports the package from `src/`.  For
each size it times, in alternation, the two ways of walking the trials
(SEED, (i,)) of one exact `couple` run:

* scalar: `run_coupling(config, rng)` for each stream of
  `RngStream.trials`, one trial after another;
* lanes: `run_coupling_lanes(config, Pcg64Lanes(SEED, trials))`, every
  trial at once.

A cold walk starts on a `PrefixTree` that has just been built, so it grows
every node it visits, as a fresh `couple` process does; a warm walk starts
on the tree an untimed walk of the same trials left.  Building the tree is
never timed.  Each walk is checked to give every trace the other gives.
Timings are milliseconds per walk, reported as the median and quartiles
with the machine.  Only `time.perf_counter` and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

SEED = 31
# (n, k, d), gamma, trials, tree
SIZES = (((6, 3, 2), 0.75, 4000, "warm"),
         ((7, 3, 3), 4 / 7, 8, "cold"),
         ((7, 3, 3), 4 / 7, 8, "warm"),
         ((9, 3, 2), 0.5, 200, "warm"))


def summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {"median_ms": round(statistics.median(values), 3),
            "quartiles_ms": [round(quartiles[0], 3), round(quartiles[2], 3)]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True,
                    help="JSON file to write, e.g. BENCH_<n>.json")
    ap.add_argument("--repeats", type=int, default=15,
                    help="timed walks per size and way (default 15)")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    from hypercouple import (CouplingConfig, Params, Pcg64Lanes, RngStream,
                             choose_epsilon, run_coupling,
                             run_coupling_lanes)
    from hypercouple.oracle import prefix_tree

    def scalar(config, trials):
        return [run_coupling(config, rng)
                for rng in RngStream.trials(SEED, trials)]

    def lanes(config, trials):
        return run_coupling_lanes(config, Pcg64Lanes(SEED, trials))

    rows = []
    for (n, k, d), gamma, trials, tree in SIZES:
        params = Params(n, k, d)
        config = CouplingConfig(params, gamma, choose_epsilon(params, gamma))
        walk = lanes(config, trials)
        assert all(walk.trace(i) == ref
                   for i, ref in enumerate(scalar(config, trials)))
        times: dict[str, list[float]] = {"scalar": [], "lanes": []}
        for _ in range(args.repeats):
            for name, run in (("scalar", scalar), ("lanes", lanes)):
                if tree == "cold":
                    prefix_tree.cache_clear()
                    prefix_tree(params)
                start = time.perf_counter()
                run(config, trials)
                times[name].append(1e3 * (time.perf_counter() - start))
        row = {"n": n, "k": k, "d": d, "gamma": round(gamma, 6),
               "trials": trials, "tree": tree}
        for name, values in times.items():
            row[name] = summary(values)
        row["speedup"] = round(row["scalar"]["median_ms"]
                               / row["lanes"]["median_ms"], 2)
        rows.append(row)
        sys.stderr.write(f"{(n, k, d)} x{trials} {tree}: scalar "
                         f"{row['scalar']} lanes {row['lanes']}\n")

    report = {
        "benchmark": "couple",
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "seed": SEED, "repeats": args.repeats, "sizes": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
