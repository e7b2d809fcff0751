"""One round of a workload, in a fresh interpreter.

    python3 perfbench/child.py MODE SRC OUT EXTRA -- SUBCOMMAND ARGS...

MODE is `setup` (import and build the config only), `run` (also time
`run_experiment`) or `trace` (run it with spans on; EXTRA is then
`WORKLOAD:SEED:UNTRACED_RUN_S:SPANS_FILE`).  The last line printed is a
JSON object.  Nothing is imported before the set-up clock starts, so set-up
time is what a CLI call pays to import the package and parse its flags.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402  (already loaded by the interpreter)

MODE, SRC, OUT, EXTRA = sys.argv[1:5]
ARGV = sys.argv[6:]
sys.path.insert(0, SRC)

from hypercouple import experiments  # noqa: E402

CFG = experiments.config_from_args(ARGV + ["--out", OUT])
SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run() -> dict:
    start = time.perf_counter()
    experiments.run_experiment(CFG)
    return {"run_s": time.perf_counter() - start, "rss_mb": peak_rss_mb()}


def trace() -> dict:
    import tracing
    from checks import check_regular_graph
    from workloads import ATTEMPT_PARAMS, ATTEMPT_TRIALS, CENSUS, WORKLOADS

    name, seed, untraced_s, spans_path = EXTRA.split(":", 3)
    seed = int(seed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from hypercouple import OrderedHypergraph, Params, RngStream, samplers

    start = time.perf_counter()
    experiments.run_experiment(CFG)
    traced_s = time.perf_counter() - start
    workload = range(len(tracer.spans))
    metrics = tracing.layer_metrics(tracer.spans, workload)
    table = tracing.layer_table(tracer.spans, workload)
    source = dict.fromkeys(metrics, "workload")

    # layers the workload never calls are measured on small census runs
    for kind in WORKLOADS[name].census:
        first = len(tracer.spans)
        census = tracer.wrap(f"census.{kind}", experiments.run_experiment)
        census(experiments.config_from_args(
            list(CENSUS[kind]) + ["--seed", str(seed), "--out",
                                  os.path.join(OUT, "census", kind)]))
        found = tracing.layer_metrics(tracer.spans,
                                      range(first + 1, len(tracer.spans)))
        for key, val in found.items():
            if key not in metrics:
                metrics[key], source[key] = val, f"census.{kind}"
    # the configuration-attempt probe is always a direct call
    first = len(tracer.spans)
    params = Params(*ATTEMPT_PARAMS)
    samplers.simplicity_probability(
        OrderedHypergraph(params.n, params.k), params, ATTEMPT_TRIALS,
        RngStream(seed, (1 << 20,)), exact="never")
    key = "samplers.attempt_us"
    metrics[key] = tracing.layer_metrics(
        tracer.spans, range(first, len(tracer.spans)))[key]
    source[key] = "probe"

    spans = tracer.spans
    finals = [s[4] for s in spans if s[0] == "coupling.run_coupling"]
    failures = []
    for n, k, d, edges in finals:
        problem = check_regular_graph(edges, n, k, d)
        if problem:
            failures.append(problem)
            break
    reuse = tracing.state_reuse(
        [spans[i][4][3] for i in workload
         if spans[i][0] == "coupling.run_coupling"])
    untraced_s = float(untraced_s)
    # the two rounds ran at different moments of a machine whose speed
    # drifts, so also estimate the overhead from the cost of one span
    added = len(workload) * tracing.span_cost()
    report = {
        "workload": name, "seed": seed,
        "untraced_run_s": untraced_s, "traced_run_s": traced_s,
        "tracing_overhead": traced_s / untraced_s - 1.0,
        "workload_spans": len(workload),
        "tracing_overhead_from_span_cost": added / (traced_s - added),
        "layers": table, "metrics": metrics, "metric_source": source,
        "state_reuse": reuse,
        "span_fields": ["name", "parent", "start_s", "end_s"],
        "spans": [[s[0], s[1], s[2] - _T0, s[3] - _T0] for s in spans],
    }
    with open(spans_path, "w") as fh:
        json.dump(report, fh, separators=(",", ":"))
    return {"run_s": traced_s, "metrics": metrics, "failures": failures,
            "state_reuse": reuse, "overhead": report["tracing_overhead"],
            "overhead_est": report["tracing_overhead_from_span_cost"]}


if __name__ == "__main__":
    result = {"setup_s": SETUP_S}
    if MODE == "run":
        result.update(run())
    elif MODE == "trace":
        result.update(trace())
    print(json.dumps(result))
