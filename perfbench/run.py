"""Benchmark of the hypercouple CLI experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every round runs one CLI experiment in a
fresh interpreter (see child.py), so process caches start cold as they do
for a CLI user.  With --trace 0 the run first times set-up in fresh
interpreters, then repeats whole rounds of the workload for about S seconds
and reports their pooled throughput; with --trace 1 it runs one round untraced and
the same round traced, reports the per-layer metrics and writes the spans to
perfbench/results/<workload>-spans.json.  Every round's outputs are checked
against values the benchmark computes itself.  The last line printed is the
JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

from checks import check_round, items
from workloads import WORKLOADS, round_argv, round_seed

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def run_child(mode: str, src: str, out: str, extra: str,
              argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, CHILD, mode, src, out, extra, "--", *argv],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} round exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "hypercouple", "experiments.py")):
        sys.stderr.write("perfbench: no src/hypercouple here; run from the "
                         "repository root\n")
        return 2
    w = WORKLOADS[args.workload]
    out = os.path.join(RESULTS, "out", w.name)
    os.makedirs(out, exist_ok=True)
    attempted = failed = 0
    failures: list[str] = []

    def round_(mode: str, seed: int, extra: str = "-") -> dict | None:
        nonlocal attempted, failed
        argv = round_argv(w, seed)
        count = items(argv)
        attempted += count
        try:
            result = run_child(mode, src, out, extra, argv)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            failed += count
            sys.stderr.write(f"perfbench: {exc}\n")
            return None
        failures.extend(check_round(w, argv, out))
        failures.extend(result.get("failures", ()))
        result["items"] = count
        return result

    if args.trace:
        # the traced round repeats the first timed round's seed
        seed = round_seed(args.seed, 0)
        plain = round_("run", seed)
        spans_path = os.path.join(RESULTS, f"{w.name}-spans.json")
        traced = plain and round_(
            "trace", seed, f"{w.name}:{seed}:{plain['run_s']}:{spans_path}")
        if not traced:
            return 1
        with open("BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in sorted(traced["metrics"].items())}
        sys.stderr.write(f"perfbench: tracing overhead "
                         f"{traced['overhead']:+.1%} against the untraced "
                         f"round, {traced['overhead_est']:+.1%} from the "
                         f"cost of a span; state reuse "
                         f"{traced['state_reuse']}, spans in {spans_path}\n")
    else:
        # the first interpreter also compiles bytecode; it is not timed
        argv = round_argv(w, round_seed(args.seed, 0))
        run_child("setup", src, out, "-", argv)
        setup = [run_child("setup", src, out, "-", argv)["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
        rounds = []
        start = time.perf_counter()
        for r in itertools.count():
            began = time.perf_counter()
            result = round_("run", round_seed(args.seed, r))
            if result:
                rounds.append(result)
            took = time.perf_counter() - began
            if time.perf_counter() - start + took > args.seconds:
                break
        if not rounds:
            return 1
        # all rounds pooled: on the reference machine this held still better
        # across runs than the median round (see README)
        metrics = {
            "items_per_s": {"value": sum(r["items"] for r in rounds)
                            / sum(r["run_s"] for r in rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(
                r["rss_mb"] for r in rounds), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        sys.stderr.write(f"perfbench: {len(rounds)} rounds, run_s "
                         f"{[round(r['run_s'], 3) for r in rounds]}\n")
    for msg in failures:
        sys.stderr.write(f"perfbench: check failed: {msg}\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
