"""Per-layer instrumentation for the traced benchmark run.

:func:`install` wraps the public entry points of each pipeline layer so
that every call opens a :mod:`repro.obs.trace` span named after its
layer, with the work the call did (instructions compiled, orderings
generated, ...) attached as the span's ``n`` argument. The wrappers
replace module and class attributes at run time; no file under
``src/`` changes, and the untraced runs never install them.

:func:`layer_metrics` turns the recorded spans, together with the
program's own spans (``query.eval``, ``explore.run``, ``synth.plan``;
``serve.request`` bounds each server request), into the per-layer
metrics: each span's self time is its duration minus the time its
direct child spans cover on the same thread.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict

from repro.obs import trace as obs_trace


def _ir_size(program) -> int:
    return sum(
        len(block.instructions)
        for func in program.functions.values()
        for block in func.blocks
    )


#: (module, attribute, span name, work count of the call's result).
#: A function imported by name into another module is patched where
#: its callers look it up, so each caller path is covered once.
WRAPPED = (
    ("repro.api.session", "compile_source", "frontend.compile", _ir_size),
    ("repro.query.facts", "PointsTo", "analysis.facts", None),
    ("repro.query.facts", "EscapeInfo", "analysis.facts",
     lambda info: len(info.escaping)),
    ("repro.query.facts", "ReachabilityTable", "analysis.facts", None),
    ("repro.core.signatures", "detect_acquires", "core.acquires",
     lambda result: len(result.sync_reads)),
    ("repro.core.pipeline", "generate_orderings", "core.orderings", len),
    ("repro.core.pipeline", "prune_orderings", "core.prune",
     lambda result: len(result[0])),
    ("repro.core.pipeline", "plan_fences", "core.plan", None),
    ("repro.synth.optimal", "plan_fences", "core.plan", None),
    ("repro.core.fence_min", "collect_intervals", "core.intervals",
     lambda by_block: sum(len(ivs) for ivs in by_block.values())),
    ("repro.arch.lowering", "lower_plan", "arch.lower", None),
    ("repro.synth.optimal", "lower_plan", "arch.lower", None),
    ("repro.synth.optimal", "block_cut", "synth.mincut", None),
    ("repro.core.pipeline", "apply_plan", "ir.insert", None),
    ("repro.arch.lowering", "apply_lowered_plan", "ir.insert", None),
    ("repro.races.detector", "detect_races", "races.detect",
     lambda report: len(report.candidates)),
    ("repro.races.detector", "build_access_summary", "races.detect", None),
    ("repro.diagnostics.passes", "confirm_candidates", "races.confirm",
     lambda verdicts: verdicts.traces_checked),
    ("repro.simulator.machine:TSOSimulator", "run", "simulator.run",
     lambda stats: stats.cycles),
    ("repro.api.session:Session", "analyze", "api.session", None),
    ("repro.api.session:Session", "check", "api.session", None),
    ("repro.api.session:Session", "lint", "api.session", None),
    ("repro.api.session:Session", "simulate", "api.session", None),
)

#: span name -> the per-layer metric its self time is charged to.
#: ``core.intervals`` is interval collection inside the planners.
SELF_TIME_METRIC = {
    "frontend.compile": "frontend.compile_ms",
    "analysis.facts": "analysis.facts_ms",
    "core.acquires": "core.acquires_ms",
    "core.orderings": "core.orderings_ms",
    "core.prune": "core.prune_ms",
    "core.plan": "core.plan_ms",
    "core.intervals": "core.plan_ms",
    "arch.lower": "arch.lower_ms",
    "synth.plan": "synth.plan_ms",
    "synth.mincut": "synth.mincut_ms",
    "ir.insert": "ir.insert_ms",
    "query.eval": "query.eval_ms",
    "api.session": "api.session_ms",
    "explore.run": "memmodel.explore_ms",
    "races.detect": "races.detect_ms",
    "races.confirm": "races.confirm_ms",
}

#: span name -> the per-layer count summed from its ``n`` argument.
WORK_COUNT_METRIC = {
    "frontend.compile": "frontend.ir_instructions",
    "analysis.facts": "analysis.escaping_accesses",
    "core.acquires": "core.sync_reads",
    "core.orderings": "core.orderings",
    "core.prune": "core.prune_kept",
    "core.intervals": "core.intervals",
    "races.detect": "races.candidates",
    "races.confirm": "races.confirm_traces",
}


class QueryCounts:
    """Query-engine hit/miss/compute counts across every engine in the
    process (in-process workloads create a fresh engine per op)."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.computes = 0

    def snapshot(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "computes": self.computes}


def _span_wrapper(fn, name: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs_trace.span(name, cat="bench") as span:
            result = fn(*args, **kwargs)
            if count is not None and span is not obs_trace.NOOP_SPAN:
                span.set(n=count(result))
            return result

    return wrapper


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install() -> QueryCounts:
    """Install every layer wrapper in this process (idempotent per
    process: call once). Returns the process-wide query counters."""
    for target, attr, name, count in WRAPPED:
        owner = _resolve(target)
        setattr(owner, attr, _span_wrapper(getattr(owner, attr), name, count))

    from repro.query.engine import QueryStats

    counts = QueryCounts()
    for method, field in (("record_hit", "hits"), ("record_miss", "misses"),
                          ("record_compute", "computes")):
        original = getattr(QueryStats, method)

        def counting(self, name, _original=original, _field=field):
            setattr(counts, _field, getattr(counts, _field) + 1)
            return _original(self, name)

        setattr(QueryStats, method, counting)
    return counts


def self_times(events: list[dict]) -> dict[str, float]:
    """Total self time in microseconds per span name.

    Spans nest by time containment on one ``(pid, tid)`` row, which is
    how the tracer records them; a span's self time is its duration
    minus the durations of its direct children.
    """
    rows: dict[tuple, list[dict]] = defaultdict(list)
    for event in events:
        rows[(event.get("pid"), event.get("tid"))].append(event)
    totals: dict[str, float] = defaultdict(float)
    for row in rows.values():
        row.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[list] = []  # [end, name, child time, duration]

        def close(frame):
            totals[frame[1]] += max(0.0, frame[3] - frame[2])
            if stack:
                stack[-1][2] += frame[3]

        for event in row:
            while stack and event["ts"] >= stack[-1][0]:
                close(stack.pop())
            stack.append([event["ts"] + event["dur"], event["name"], 0.0,
                          float(event["dur"])])
        while stack:
            close(stack.pop())
    return dict(totals)


def layer_metrics(events: list[dict], ops: int) -> dict[str, float]:
    """Per-layer times (ms per op, ``ops`` being the traced ops) and
    work counts from a traced run's spans. Simulator time is per
    simulated program, since simulation is not an op of any workload."""
    selfs = self_times(events)
    metrics: dict[str, float] = {name: 0.0 for name in SELF_TIME_METRIC.values()}
    for span_name, metric in SELF_TIME_METRIC.items():
        metrics[metric] += selfs.get(span_name, 0.0) / 1000.0 / max(ops, 1)
    for metric in WORK_COUNT_METRIC.values():
        metrics[metric] = 0
    states = bounded = sim_runs = sim_cycles = 0
    for event in events:
        args = event.get("args") or {}
        metric = WORK_COUNT_METRIC.get(event["name"])
        if metric is not None and "n" in args:
            metrics[metric] += args["n"]
        if event["name"] == "explore.run":
            states += args.get("states", 0)
            bounded += args.get("verdict") != "complete"
        elif event["name"] == "simulator.run":
            sim_runs += 1
            sim_cycles += args.get("n", 0)
    metrics["core.prune_keep_ratio"] = (
        metrics["core.prune_kept"] / metrics["core.orderings"]
        if metrics["core.orderings"] else 0.0
    )
    metrics["memmodel.states"] = states
    metrics["memmodel.bounded_runs"] = bounded
    metrics["simulator.cycles"] = sim_cycles
    metrics["simulator.run_ms"] = (
        selfs.get("simulator.run", 0.0) / 1000.0 / sim_runs if sim_runs else 0.0
    )
    return metrics


def query_metrics(hits: int, misses: int, computes: int) -> dict[str, float]:
    lookups = hits + misses
    return {
        "query.hits": hits,
        "query.misses": misses,
        "query.computes": computes,
        "query.hit_ratio": hits / lookups if lookups else 0.0,
    }


def counter_total(counters: dict[str, float], name: str) -> float:
    """Sum of a registry counter over all its label sets."""
    return sum(
        value for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )
