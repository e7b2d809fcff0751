"""Cost of a trial's random stream: seeding, bounded draws and coupling traces.

    python3 bench/streams.py --out BENCH_<n>.json [--src DIR]

Run from the repository root; it imports the package from DIR (default
`src/`), so the same script can time another checkout.  It measures:

* generator: for 4,000 and 100,000 trials, building every trial's numpy
  Generator both ways: `RngStream(seed, (i,)).generator()`, which hashes
  the seed words per trial, and `RngStream.trials(seed, count)` followed by
  each stream's `generator()`, which hashes all trials in one vectorised
  pass;
* draw: one bounded draw `integers(t, 84)` and one coin vector
  `integers(4, size=3)` (the shapes of a (6,3,2) and a (9,3,2) trace) from
  a numpy PCG64 `Generator` and from `Pcg64Stream` at the same state,
  microseconds per call (a checkout without `Pcg64Stream` reports the
  numpy rows only);
* run_coupling: `run_coupling` per trace at (6,3,2), gamma 0.75 (the
  couple-warm instance), with each kind of stream, after one warm-up trace
  has built the prefix tree;
* numpy_random_import: the first `import numpy.random` after `import
  numpy`, timed in FRESH fresh interpreters.

Every in-process measurement is repeated REPEATS times, alternating the
ways compared, and reported as the median and quartiles in microseconds,
with the machine.  Only `time.perf_counter` and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SEED = 21
GENERATOR_COUNTS = (4_000, 100_000)
COUPLING_TRACES = 4_000
DRAW_CALLS = 20_000
REPEATS = 7
FRESH = 15

IMPORT_PROBE = ("import time, numpy; t = time.perf_counter(); "
                "import numpy.random; print(time.perf_counter() - t)")


def summary(per_call_s: list[float]) -> dict:
    us = [1e6 * x for x in per_call_s]
    return {"median_us": round(statistics.median(us), 3),
            "quartiles_us": [round(q, 3) for q in
                             statistics.quantiles(us, n=4)[::2]]}


def alternate(ways: dict, count: int) -> dict:
    """Seconds per call of each way (a callable running `count` calls),
    over REPEATS repeats in alternating order."""
    times: dict[str, list[float]] = {way: [] for way in ways}
    for r in range(REPEATS):
        order = list(ways) if r % 2 == 0 else list(reversed(ways))
        for way in order:
            start = time.perf_counter()
            ways[way]()
            times[way].append((time.perf_counter() - start) / count)
    return {way: summary(t) for way, t in times.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True,
                    help="JSON file to write, e.g. BENCH_<n>.json")
    ap.add_argument("--src", default="src",
                    help="directory holding the hypercouple package")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import hypercouple
    from hypercouple import (CouplingConfig, Params, RngStream,
                             choose_epsilon, run_coupling)

    def streams_way(make, per_stream, count):
        def way():
            for stream in make(count):
                per_stream(stream)
        return way

    def stream_ways(per_stream, count):
        return {
            "plain": streams_way(
                lambda c: [RngStream(SEED, (i,)) for i in range(c)],
                per_stream, count),
            "bulk": streams_way(lambda c: RngStream.trials(SEED, c),
                                per_stream, count)}

    generators = [{"trials": count,
                   **alternate(stream_ways(RngStream.generator, count),
                               count)}
                  for count in GENERATOR_COUNTS]

    def draw_ways(source, call):
        def way():
            for t in range(DRAW_CALLS):
                call(source, t)
        return way

    numpy_gen = RngStream(SEED).generator()
    draw_shapes = {
        "bounded": lambda s, t: s.integers(t % 84, 84),
        "coins": lambda s, t: s.integers(4, size=3),
    }
    draws = {}
    for shape, call in draw_shapes.items():
        ways = {"numpy": draw_ways(numpy_gen, call)}
        if hasattr(hypercouple, "Pcg64Stream"):
            ways["pcg64_stream"] = draw_ways(
                hypercouple.Pcg64Stream.of(RngStream(SEED)), call)
        draws[shape] = alternate(ways, DRAW_CALLS)

    params = Params(6, 3, 2)
    config = CouplingConfig(params, gamma=0.75,
                            epsilon=choose_epsilon(params, 0.75))
    run_coupling(config, RngStream(SEED, (COUPLING_TRACES,)))
    coupling = {"n": 6, "k": 3, "d": 2, "gamma": 0.75,
                "traces": COUPLING_TRACES,
                **alternate(stream_ways(lambda s: run_coupling(config, s),
                                        COUPLING_TRACES), COUPLING_TRACES)}

    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    imports = [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
        capture_output=True, text=True).stdout) for _ in range(FRESH)]

    result = {
        "benchmark": "streams",
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "repeats": REPEATS,
        "generator": generators,
        "draw": {"calls": DRAW_CALLS, **draws},
        "run_coupling": coupling,
        "numpy_random_import": {"interpreters": FRESH, **summary(imports)},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
