"""Spans around calls into the package's public functions.

`install` swaps each traced function for a wrapper in every loaded
`hypercouple` module that holds a reference to it, so calls made through
`from .oracle import count_extensions` and through `oracle.count_extensions`
are both seen.  Only names the package exports (plus
`samplers.simplicity_probability`) are traced, so the spans survive
refactors behind those names.  A span is (name, parent index, start, end,
value), where value is what the benchmark keeps of the call's result: a
count, or for run_coupling the instance and the final exposure order.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name, parent, start, end, None)
            if value is not None:
                spans[i] = (name, parent, start, end, value(result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    from hypercouple import (coupling, experiments, oracle, process, samplers,
                             switchings)

    targets = [
        ("samplers.stream", samplers.RngStream, "generator", None),
        ("samplers.sample_regular", samplers, "sample_regular", None),
        ("samplers.simplicity_probability", samplers,
         "simplicity_probability", lambda est: est.trials),
        ("process.residual_report", process, "residual_report", None),
        ("oracle.count_extensions", oracle, "count_extensions",
         lambda fam: fam.nodes_used),
        ("oracle.switching_class_sizes", oracle, "switching_class_sizes",
         None),
        ("coupling.run_coupling", coupling, "run_coupling",
         lambda tr: (tr.config.params.n, tr.config.params.k,
                     tr.config.params.d, tr.regular_final.edges)),
        ("switchings.forward_count", switchings, "forward_count", int),
        ("switchings.backward_count", switchings, "backward_count", int),
        ("experiments.run_experiment", experiments, "run_experiment", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if name == "hypercouple" or name.startswith("hypercouple.")]
    for label, owner, attr, value in targets:
        original = getattr(owner, attr)
        traced = tracer.wrap(label, original, value)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for mod in modules:
            for key, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, key, traced)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, from a wrapped no-op.

    Measured in the traced process itself, so it is not thrown off by the
    machine's speed drifting between the untraced and the traced round.
    """
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (wrapped - (time.perf_counter() - start)) / calls


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_table(spans: list[tuple], window: range) -> dict:
    """Calls, total and self time per span name over spans[window], and the
    summed counts (oracle nodes, switching moves) where the span has one."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for i in window:
        name, _, start, end, value = spans[i]
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[i]
        if isinstance(value, int):
            row["count"] = row.get("count", 0) + value
    return table


def state_reuse(final_graphs: list[tuple]) -> dict:
    """Prefix-state visits of run_coupling against distinct states.

    run_coupling asks for the next-edge law at every prefix of the regular
    exposure, so a trace over M edges visits its M proper prefixes.
    """
    visits = 0
    distinct: set[frozenset] = set()
    for edges in final_graphs:
        for t in range(len(edges)):
            distinct.add(frozenset(edges[:t]))
        visits += len(edges)
    return {"visits": visits, "distinct": len(distinct),
            "ratio": visits / len(distinct) if distinct else None}


def layer_metrics(spans: list[tuple], window: range) -> dict[str, float]:
    """The per-layer metrics that spans[window] determine."""
    own = self_times(spans)
    by: dict[str, list[int]] = {}
    for i in window:
        by.setdefault(spans[i][0], []).append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def total(name):
        return sum(dur(i) for i in by.get(name, ()))

    def value(name):
        return sum(spans[i][4] for i in by.get(name, ()))

    out: dict[str, float] = {}
    if "samplers.stream" in by:
        out["samplers.stream_us"] = 1e6 * statistics.median(
            dur(i) for i in by["samplers.stream"])
    if "samplers.simplicity_probability" in by:
        out["samplers.attempt_us"] = 1e6 * total(
            "samplers.simplicity_probability") / value(
            "samplers.simplicity_probability")
    if "samplers.sample_regular" in by:
        out["samplers.sample_ms"] = 1e3 * statistics.median(
            dur(i) for i in by["samplers.sample_regular"])
    if "process.residual_report" in by:
        # the report minus its traced children: sample_regular, the stream
        out["process.self_ms"] = 1e3 * statistics.median(
            own[i] for i in by["process.residual_report"])
    if "oracle.count_extensions" in by:
        out["oracle.enum_s"] = total("oracle.count_extensions")
        out["oracle.enum_nodes_per_s"] = value(
            "oracle.count_extensions") / out["oracle.enum_s"]
    if "oracle.switching_class_sizes" in by:
        out["oracle.class_sizes_s"] = total("oracle.switching_class_sizes")
    if "coupling.run_coupling" in by:
        runs = by["coupling.run_coupling"]
        out["coupling.trace_ms"] = 1e3 * statistics.median(
            dur(i) for i in runs)
        out["coupling.first_trace_s"] = dur(runs[0])
        reuse = state_reuse([spans[i][4][3] for i in runs])
        out["coupling.new_state_ms"] = 1e3 * total(
            "coupling.run_coupling") / reuse["distinct"]
    for side in ("forward", "backward"):
        name = f"switchings.{side}_count"
        if name in by:
            out[f"switchings.{side}_per_s"] = value(name) / total(name)
    if "experiments.run_experiment" in by:
        out["experiments.self_s"] = sum(
            own[i] for i in by["experiments.run_experiment"])
    return out
