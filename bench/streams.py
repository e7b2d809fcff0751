"""Cost of a trial's random stream, seeded one by one or in bulk.

    python3 bench/streams.py --out BENCH_<n>.json

Run from the repository root; it imports the package from `src/`.  For
4,000 and 100,000 trials it times building every trial's generator both
ways: `RngStream(seed, (i,)).generator()`, which runs numpy's
`SeedSequence` per trial, and `RngStream.trials(seed, count)` followed by
each stream's `generator()`, which seeds all trials in one vectorised pass.
It also times `run_coupling` per trace at (6,3,2), gamma 0.75 (the
couple-warm instance), with each kind of stream, after one warm-up trace
has built the prefix tree.  Every measurement is repeated REPEATS times,
the two ways alternating, and reported as the median and quartiles in
microseconds per trial, with the machine.  Only `time.perf_counter` and
numpy are used.
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
    CouplingConfig,
    Params,
    RngStream,
    choose_epsilon,
    run_coupling,
)

SEED = 21
GENERATOR_COUNTS = (4_000, 100_000)
COUPLING_TRACES = 4_000
REPEATS = 7


def plain_streams(count: int) -> list[RngStream]:
    return [RngStream(SEED, (i,)) for i in range(count)]


def bulk_streams(count: int) -> list[RngStream]:
    return RngStream.trials(SEED, count)


WAYS = {"plain": plain_streams, "bulk": bulk_streams}


def summary(per_trial_s: list[float]) -> dict:
    us = [1e6 * x for x in per_trial_s]
    return {"median_us": round(statistics.median(us), 3),
            "quartiles_us": [round(q, 3) for q in
                             statistics.quantiles(us, n=4)[::2]]}


def time_ways(count: int, per_stream) -> dict:
    """Seconds per trial of making the streams and calling `per_stream` on
    each, for both ways, over REPEATS alternating repeats."""
    times: dict[str, list[float]] = {way: [] for way in WAYS}
    for r in range(REPEATS):
        order = list(WAYS) if r % 2 == 0 else list(reversed(WAYS))
        for way in order:
            start = time.perf_counter()
            for stream in WAYS[way](count):
                per_stream(stream)
            times[way].append((time.perf_counter() - start) / count)
    return {way: summary(t) for way, t in times.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True,
                    help="JSON file to write, e.g. BENCH_<n>.json")
    args = ap.parse_args()

    generators = [{"trials": count,
                   **time_ways(count, RngStream.generator)}
                  for count in GENERATOR_COUNTS]

    params = Params(6, 3, 2)
    config = CouplingConfig(params, gamma=0.75,
                            epsilon=choose_epsilon(params, 0.75))
    run_coupling(config, RngStream(SEED, (COUPLING_TRACES,)))
    coupling = {"n": 6, "k": 3, "d": 2, "gamma": 0.75,
                "traces": COUPLING_TRACES,
                **time_ways(COUPLING_TRACES,
                            lambda stream: run_coupling(config, stream))}

    result = {
        "benchmark": "streams",
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "repeats": REPEATS,
        "generator": generators,
        "run_coupling": coupling,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
