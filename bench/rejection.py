"""Cost of configuration rejection: attempts, samples and permuted rows.

    python3 bench/rejection.py --out BENCH_<n>.json [--src DIR]

Run from the repository root; it imports the package from DIR (default
`src/`), so the same script can time another checkout.  At (60,3,6) and
(60,3,12), on the empty base, it measures:

* attempt: `simplicity_probability(..., exact="never")` over ATTEMPTS
  configuration attempts, microseconds per attempt, REPEATS times;
* sample: `sample_regular` on the streams (SEED, (i,)), milliseconds per
  sample, one timing per stream;
* rows: on the same streams, the rows the lent Generator permutes per
  accepted sample (counted by wrapping `RngStream.generator`), next to the
  attempts per sample (the rows a loop of one `permutation` per attempt
  would permute).  The counts are exact and repeat.

It also counts the rows and attempts of one process-stats round at
(60,3,6): 250 trials of `residual_report` on `RngStream.trials(1001,
250)`, which is what `process-stats --seed 1001 --trials 250` runs.
Timings are reported as the median and quartiles, with the machine.  Only
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

import numpy as np

SEED = 27
ATTEMPTS = 3000
REPEATS = 7
# samples per size: (60,3,12) accepts about one attempt in 10^5
SIZES = {(60, 3, 6): 200, (60, 3, 12): 6}
ROUND = ((60, 3, 6), 1001, 250)


def summary(values: list[float], unit: str) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {f"median_{unit}": round(statistics.median(values), 3),
            f"quartiles_{unit}": [round(quartiles[0], 3),
                                  round(quartiles[2], 3)]}


class RowCounter:
    """Wraps `RngStream.generator` so that every Generator a stream lends
    logs the start state and row count of each `permuted` call."""

    def __init__(self, samplers) -> None:
        self.samplers = samplers
        self.log: list[tuple] = []

    def __enter__(self) -> "RowCounter":
        log = self.log
        original = self.original = self.samplers.RngStream.generator

        class Counted:
            def __init__(self, gen):
                self._gen = gen

            def permuted(self, x, axis=None, out=None):
                log.append((self._gen.bit_generator.state, len(x)))
                return self._gen.permuted(x, axis=axis, out=out)

            def __getattr__(self, name):
                return getattr(self._gen, name)

        self.samplers.RngStream.generator = lambda rng: Counted(original(rng))
        return self

    def __exit__(self, *exc) -> None:
        self.samplers.RngStream.generator = self.original

    def attempts(self, log: list[tuple], final: dict, width: int) -> int:
        """Attempts one sample took: the rows of its batches up to the one
        holding the accepted attempt, then that batch's rows stepped one
        `permutation` at a time until the stream's final state.  A batch
        drawn again from a state already seen is a redraw, not new
        attempts."""
        seen, batches = set(), []
        for state, rows in log:
            key = (state["state"]["state"], state["has_uint32"],
                   state["uinteger"])
            if key not in seen:
                seen.add(key)
                batches.append((state, rows))
        state, _ = batches[-1]
        gen = self.original(self.samplers.RngStream(0))
        gen.bit_generator.state = state
        vector = np.zeros(width, dtype=np.int64)
        step = 0
        while gen.bit_generator.state != final:
            gen.permutation(vector)
            step += 1
        return sum(rows for _, rows in batches[:-1]) + step


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True,
                    help="JSON file to write, e.g. BENCH_<n>.json")
    ap.add_argument("--src", default="src",
                    help="directory holding the hypercouple package")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from hypercouple import (OrderedHypergraph, Params, Pcg64Stream,
                             RngStream, residual_report, sample_regular,
                             samplers)

    sizes = []
    for (n, k, d), count in SIZES.items():
        params, empty = Params(n, k, d), OrderedHypergraph(n, k)
        attempt_us = []
        for r in range(REPEATS):
            start = time.perf_counter()
            samplers.simplicity_probability(
                empty, params, ATTEMPTS, RngStream(SEED, (r,)),
                exact="never")
            attempt_us.append(1e6 * (time.perf_counter() - start) / ATTEMPTS)
        streams = [RngStream(SEED, (i,)) for i in range(count)]
        sample_ms = []
        for rng in streams:
            start = time.perf_counter()
            sample_regular(empty, params, rng)
            sample_ms.append(1e3 * (time.perf_counter() - start))
        rows = attempts = 0
        with RowCounter(samplers) as counter:
            for rng in streams:
                stream = Pcg64Stream.of(rng)
                del counter.log[:]
                sample_regular(empty, params, stream)
                log = list(counter.log)
                rows += sum(r for _, r in log)
                attempts += counter.attempts(log, stream.state, n * d)
        sizes.append({"n": n, "k": k, "d": d, "samples": count,
                      "attempt_trials": ATTEMPTS,
                      **summary(attempt_us, "attempt_us"),
                      **summary(sample_ms, "sample_ms"),
                      "rows_per_sample": round(rows / count, 2),
                      "attempts_per_sample": round(attempts / count, 2)})
        print(json.dumps(sizes[-1]), flush=True)

    (n, k, d), seed, trials = ROUND
    params = Params(n, k, d)
    rows = attempts = 0
    with RowCounter(samplers) as counter:
        for rng in RngStream.trials(seed, trials):
            stream = Pcg64Stream.of(rng)
            del counter.log[:]
            residual_report(params, 1, stream)
            log = list(counter.log)
            rows += sum(r for _, r in log)
            attempts += counter.attempts(log, stream.state, n * d)

    result = {
        "benchmark": "rejection",
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "repeats": REPEATS,
        "sizes": sizes,
        "process_round": {"n": n, "k": k, "d": d, "seed": seed,
                          "trials": trials, "rows": rows,
                          "attempts": attempts},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result["process_round"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
