"""The benchmark's three workloads, their inputs and their references.

* ``corpus-sweep`` — a cold compile-and-place sweep, in-process: every
  op is a fresh :class:`~repro.api.Session` answering one
  ``AnalyzeRequest`` for one (program, variant, arch) cell.
* ``serve-edit`` — two closed-loop editor connections against one
  ``repro serve --workers 0`` subprocess; 2 of every 3 requests repeat
  a program unchanged, the third edits one of its functions.
* ``verify`` — one-shot ``CheckRequest``s (litmus tests and generated
  programs under a fixed state budget) and ``LintRequest``s.

Every output is checked against a reference that does not come from
the code under test: hand-written litmus ground truth, the generator's
by-construction truth, the committed lint goldens, the paper's fence
ordering between variants, or a one-shot in-process analysis of the
same source (for the served reports). A mismatch counts as a failed op.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from speed import LOAD_REFERENCE_S, SpeedProbe, load_slice
from repro.api import (
    AnalyzeRequest,
    CheckRequest,
    LintRequest,
    ProgramSpec,
    Session,
    SimulateRequest,
)
from repro.memmodel.litmus import LITMUS_TESTS
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.programs import all_programs, get_program
from repro.validate.generator import SHAPES, generate_program

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

VARIANTS = ("pensieve", "control", "address+control")
#: (arch, memory model, synthesis) per corpus-sweep cell column.
SWEEP_CONFIGS = (
    ("x86", "x86-tso", "greedy"),
    ("arm", "arm", "optimal"),
    ("power", "power", "optimal"),
)
#: The configuration every served request and every simulated
#: placement uses: the paper's x86 setting with the Control variant.
SERVED = {"variant": "control", "model": "x86-tso", "arch": "x86"}
#: Litmus check models, with the synthesis their placements use:
#: ARM and Power checks validate the min-cost flavored placements.
CHECK_MODELS = {"x86-tso": "greedy", "pso": "greedy", "arm": "optimal", "power": "optimal"}
GENERATED_MODELS = ("x86-tso", "pso")
GENERATED_VARIANTS = ("vanilla", "pensieve", "control", "address+control")
#: Variants whose placements the paper claims sound on every program.
TRUSTED_VARIANTS = ("pensieve", "address+control")
#: Fixed per-exploration state budget of the verify checks. It leaves
#: mp-chain on arm/power and the generated queue programs on pso bounded.
CHECK_MAX_STATES = 1000
GENERATED_SEEDS_PER_SHAPE = 3
#: Requests per connection in the traced serve-edit schedule, sent in
#: chunks that alternate between the untraced and the traced server.
TRACED_SERVE_REQUESTS = 30
TRACED_SERVE_CHUNK = 5
#: Server starts + warm-ups per serve-edit run; ``setup_s`` is their median.
SERVE_SETUP_REPEATS = 5
#: Load-probe slices right before and right after each server start.
SERVE_START_PROBE_SLICES = 30
#: Cells re-run after corpus-sweep's timed loop, whose one pass outlasts
#: ``--seconds``, so that its repeat check sees repeated cells.
REPEATED_CELLS = 9


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: end-to-end metric -> (value, unit, note)
    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    #: end-to-end time metric -> its value as measured, before the
    #: speed factor
    measured: dict[str, float] = field(default_factory=dict)
    #: per-layer metric -> value (traced runs)
    layers: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


def latency_metrics(
    out: Outcome,
    primary: list[tuple[float, float]],
    secondary: list[tuple[float, float]],
    secondary_of: str,
    streams: list[list[tuple[float, float]]],
    probe: SpeedProbe,
) -> None:
    """Throughput and latency percentiles at reference machine speed.
    Samples are ``(seconds, at)`` pairs of measured op time and the
    ``perf_counter`` time the op ended; each is scaled by the speed
    factor around ``at``. Throughput is ops per second of op time in
    each closed-loop ``stream`` (the in-process loop, or a connection),
    summed over the streams."""
    def scaled(samples):
        return [seconds * probe.factor_at(at) for seconds, at in samples]

    def rate(scale) -> float:
        return sum(len(stream) / sum(scale(stream)) for stream in streams)

    measured = rate(lambda stream: [seconds for seconds, _ in stream])
    out.measured["throughput_ops_s"] = measured
    out.metrics["throughput_ops_s"] = (
        rate(scaled), "1/s", f"{measured:.3f} measured, mean speed factor {probe.factor():.3f}",
    )
    for name, samples, q, of in (
        ("latency_p50_ms", primary, 4, ""),
        ("latency_p90_ms", primary, 8, ""),
        ("secondary_p50_ms", secondary, 4, f" {secondary_of}"),
    ):
        measured = deciles([seconds for seconds, _ in samples])[q] * 1000
        out.measured[name] = measured
        out.metrics[name] = (deciles(scaled(samples))[q] * 1000, "ms",
                             f"n={len(samples)}{of}, {measured:.1f} measured")


def fenced_sim_cycles(programs: list[ProgramSpec]) -> int:
    """Timed-TSO simulator cycles of the x86 Control placements."""
    return sum(
        Session().simulate(
            SimulateRequest(program=spec, placement=SERVED["variant"],
                            model=SERVED["model"], arch=SERVED["arch"])
        ).cycles
        for spec in programs
    )


def corpus_names() -> list[str]:
    return sorted(all_programs())


# --- in-process pass loop ---------------------------------------------------
@dataclass
class Op:
    """One in-process op: a fresh ``Session``'s ``kind`` method
    ("analyze", "check" or "lint") on ``request``."""

    kind: str
    cell: tuple
    request: object
    #: The reference the op's report is checked against (verify).
    expect: object = None


def timed(op: Op) -> tuple[float, str | None, str | None, float]:
    """Run one op; returns (seconds, canonical report, error, end time)."""
    started = time.perf_counter()
    try:
        text = canonical(getattr(Session(), op.kind)(op.request).to_payload())
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        ended = time.perf_counter()
        return ended - started, None, f"{type(exc).__name__}: {exc}", ended
    ended = time.perf_counter()
    return ended - started, text, None, ended


def run_passes(ops: list, seconds: float, probe: SpeedProbe) -> list:
    """Whole passes over ``ops`` until ``seconds`` have elapsed, with a
    speed-probe slice after every op. Returns per-op records
    ``(index, seconds, report, error, end time)``."""
    gc.collect()
    records = []
    started = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            records.append((index, *timed(op)))
            probe.sample()
        if time.perf_counter() - started >= seconds:
            return records


def check_repeats(out: Outcome, ops: list[Op], records: list) -> dict[int, dict]:
    """Count each op, fail errors and repeats that differ from the
    cell's first report; returns the first report of every cell."""
    first: dict[int, str] = {}
    for index, _seconds, text, error, _ended in records:
        out.attempted += 1
        if error is not None:
            out.fail(f"{ops[index].cell}: {error}")
        elif index not in first:
            first[index] = text
        elif first[index] != text:
            out.fail(f"{ops[index].cell}: repeated cell gave a different report")
    return {index: json.loads(text) for index, text in first.items()}


def traced_pass(out: Outcome, ops: list[Op], trace_path: Path) -> list:
    """The traced run of an in-process workload: one whole pass with
    tracing on, written as a Chrome trace to ``trace_path``. Every
    third op also runs untraced right before or after (alternately),
    so the tracing overhead compares the same ops at the same moment
    (a geometric mean of the pairs' time ratios: whichever run of a
    pair comes second is faster, and alternating cancels that only in
    ratios). Records the per-layer metrics; returns every op record."""
    counts = layers.install()
    events: list[dict] = []
    records = []
    queries = dict.fromkeys(("hits", "misses", "computes"), 0)
    sleep_blocked = 0
    log_ratios = []  # log(traced / untraced seconds) of the paired ops
    gc.collect()
    for index, op in enumerate(ops):
        paired_op = index % 3 == 0
        if paired_op and index % 2:
            untraced = timed(op)
        before_q = counts.snapshot()
        before_s = sleep_blocked_total()
        obs_trace.enable(buffer=1 << 20)
        traced = timed(op)
        events += obs_trace.disable().drain()
        sleep_blocked += sleep_blocked_total() - before_s
        for key, value in counts.snapshot().items():
            queries[key] += value - before_q[key]
        if paired_op and not index % 2:
            untraced = timed(op)
        records.append((index, *traced))
        if paired_op:
            records.append((index, *untraced))
            log_ratios.append(math.log(traced[0] / untraced[0]))
    obs_trace.export_chrome(trace_path, events)
    out.layers.update(layers.layer_metrics(events, len(ops)))
    out.layers.update(layers.query_metrics(queries["hits"], queries["misses"], queries["computes"]))
    out.layers["memmodel.sleep_blocked"] = sleep_blocked
    out.layers["serve.server_ms"] = 0.0
    out.layers["serve.transport_ms"] = 0.0
    out.layers["obs.tracing_overhead"] = math.exp(statistics.fmean(log_ratios)) - 1.0
    return records


def sleep_blocked_total() -> float:
    return layers.counter_total(
        obs_metrics.REGISTRY.to_payload()["counters"], "repro_explore_sleep_blocked_total"
    )


def simulated_quality(out: Outcome, programs: list[ProgramSpec], trace: bool, note: str) -> None:
    """``fenced_sim_cycles``; traced runs also report the simulator
    layer, which measures it (wrappers must already be installed)."""
    if trace:
        obs_trace.enable(buffer=1 << 20).drain()
    out.metrics["fenced_sim_cycles"] = (fenced_sim_cycles(programs), "cycles", note)
    if trace:
        simulated = layers.layer_metrics(obs_trace.disable().drain(), 1)
        for name in ("simulator.run_ms", "simulator.cycles"):
            out.layers[name] = simulated[name]


# --- corpus-sweep -------------------------------------------------------------
def corpus_sweep_inputs(seed: int) -> list[Op]:
    ops = [
        Op("analyze", (program, arch, variant),
           AnalyzeRequest(program=ProgramSpec.corpus(program), variant=variant,
                          model=model, arch=arch, synthesis=synthesis, emit_ir=True))
        for program in corpus_names()
        for arch, model, synthesis in SWEEP_CONFIGS
        for variant in VARIANTS
    ]
    random.Random(f"corpus-sweep:{seed}").shuffle(ops)
    return ops


def corpus_sweep(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    out = Outcome()
    ops = corpus_sweep_inputs(seed)
    if trace:
        records = traced_pass(out, ops, out_dir / f"corpus-sweep-{seed}.trace.json")
    else:
        probe = SpeedProbe()
        records = run_passes(ops, seconds, probe)
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "benchmark process")
        latency_metrics(
            out,
            [(r[1], r[4]) for r in records],
            [(r[1], r[4]) for r in records if ops[r[0]].cell[1] == "x86"],
            "x86 greedy cells", [[(r[1], r[4]) for r in records]], probe,
        )
        # Untimed, so every seed times the same cell population.
        rng = random.Random(f"corpus-sweep-repeats:{seed}")
        records += [(i, *timed(ops[i])) for i in rng.sample(range(len(ops)), REPEATED_CELLS)]
    reports = check_repeats(out, ops, records)
    # Reference: detecting more acquires can only prune orderings, so
    # per (program, arch) the static fence counts are ordered
    # control <= address+control <= pensieve (paper, Fig. 9).
    fences = {ops[i].cell: r["full_fences"] for i, r in reports.items()}
    for program in corpus_names():
        for arch, _model, _synthesis in SWEEP_CONFIGS:
            counts = [fences.get((program, arch, v)) for v in ("control", "address+control", "pensieve")]
            if None not in counts and not counts[0] <= counts[1] <= counts[2]:
                out.fail(f"{program}/{arch}: fences control/address+control/pensieve = {counts}")
    out.metrics["full_fences"] = (sum(fences.values()), "count", f"{len(fences)} cells")
    out.metrics["fence_cost_cycles"] = (
        sum(r["fence_cost"] for r in reports.values()), "cycles", f"{len(reports)} cells",
    )
    simulated_quality(out, [ProgramSpec.corpus(p) for p in corpus_names()], trace,
                      "x86 control placements")
    out.metrics["decided_fraction"] = (1.0, "fraction", "analyses carry no state budget")
    return out


# --- verify ---------------------------------------------------------------------
def verify_inputs(seed: int) -> list[Op]:
    ops = []
    for name, test in LITMUS_TESTS.items():
        for model, synthesis in CHECK_MODELS.items():
            ops.append(Op("check", ("litmus", name, model),
                          CheckRequest(program=ProgramSpec.litmus(name), model=model,
                                       max_states=CHECK_MAX_STATES, synthesis=synthesis),
                          test))
    rng = random.Random(f"verify:{seed}")
    for shape in SHAPES:
        for generated in generated_programs(rng, shape):
            for model in GENERATED_MODELS:
                ops.append(Op("check", ("generated", generated.name, model),
                              CheckRequest(program=ProgramSpec.inline(generated.source, name=generated.name),
                                           model=model, variants=GENERATED_VARIANTS,
                                           max_states=CHECK_MAX_STATES),
                              generated))
    lint_dir = ROOT / "tests" / "data" / "lint"
    for golden_file, specs, confirm in (
        ("litmus_expected.json", [ProgramSpec.litmus(n) for n in LITMUS_TESTS], True),
        ("corpus_expected.json", [ProgramSpec.corpus(n) for n in corpus_names()], False),
    ):
        golden = json.loads((lint_dir / golden_file).read_text(encoding="utf-8"))
        for spec in specs:
            ops.append(Op("lint", ("lint", spec.name, confirm),
                          LintRequest(program=spec, variant=golden["variant"],
                                      model=golden["model"], confirm=confirm),
                          golden["programs"][spec.name]))
    rng.shuffle(ops)
    return ops


def generated_programs(rng: random.Random, shape: str) -> list:
    """Seeded generator programs of one shape, of the same size for
    every seed: from 10x as many seeded candidates, take the ones with
    the fewest source lines (the scaffold without optional compute
    kernels), from each thread count in turn, fewest threads first (a
    3-thread barrier program explores about 8x the states of a 2-thread
    one)."""
    by_threads: dict[int, list] = {}
    for gen_seed in rng.sample(range(10_000), 10 * GENERATED_SEEDS_PER_SHAPE):
        program = generate_program(gen_seed, shape)
        by_threads.setdefault(program.threads, []).append(program)
    groups = [sorted(by_threads[n], key=lambda p: p.source_lines) for n in sorted(by_threads)]
    picked = []
    while len(picked) < GENERATED_SEEDS_PER_SHAPE:
        for group in groups:
            if group and len(picked) < GENERATED_SEEDS_PER_SHAPE:
                picked.append(group.pop(0))
    return picked


def check_problems(op: Op, report: dict) -> list[str]:
    """Mismatches between a complete check verdict and its ground truth."""
    truth = op.expect
    model = op.cell[2]
    verdicts = {v["variant"]: v for v in report["variants"] if v["complete"]}
    problems = []
    if op.cell[0] == "litmus":
        if model == "x86-tso" and report["weak_breaks_unfenced"] != truth.tso_breaks_unfenced:
            problems.append(f"unfenced TSO break {report['weak_breaks_unfenced']}, "
                            f"expected {truth.tso_breaks_unfenced}")
        must_restore = VARIANTS if truth.well_synchronized else ()
        must_fail = ()
    else:
        expected_break = truth.expect_tso_break if model == "x86-tso" else truth.expect_pso_break
        if expected_break is not None and report["weak_breaks_unfenced"] != expected_break:
            problems.append(f"unfenced break {report['weak_breaks_unfenced']}, expected {expected_break}")
        if model == "x86-tso":
            must_fail = tuple(truth.expected_unsound_tso)
            must_restore = tuple(v for v in GENERATED_VARIANTS if v not in must_fail)
        else:
            must_restore, must_fail = TRUSTED_VARIANTS, ()
    for variant in must_restore:
        if variant in verdicts and not verdicts[variant]["restored_sc"]:
            problems.append(f"{variant} did not restore SC")
    for variant in must_fail:
        if variant in verdicts and verdicts[variant]["restored_sc"]:
            problems.append(f"{variant} restored SC but is unsound by construction")
    return problems


def lint_summary(report: dict) -> dict:
    """The fields the lint goldens pin (same shape as the goldens)."""
    summary = {key: report[key] for key in (
        "errors", "warnings", "notes", "confirmed_races",
        "refuted_candidates", "unknown_candidates")}
    summary["findings"] = [
        {"code": f["code"], "severity": f["severity"], "verdict": f["verdict"],
         "spans": [[s["function"], s["uid"]] for s in f["spans"]]}
        for f in report["findings"]
    ]
    return summary


def verify(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    out = Outcome()
    ops = verify_inputs(seed)
    if trace:
        records = traced_pass(out, ops, out_dir / f"verify-{seed}.trace.json")
    else:
        probe = SpeedProbe()
        records = run_passes(ops, seconds, probe)
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "benchmark process")
        latency_metrics(
            out,
            [(r[1], r[4]) for r in records if ops[r[0]].kind == "check"],
            [(r[1], r[4]) for r in records if ops[r[0]].kind == "lint"],
            "lint ops", [[(r[1], r[4]) for r in records]], probe,
        )
    reports = check_repeats(out, ops, records)
    decided = checks = 0
    litmus_fences = 0
    for index, report in reports.items():
        op = ops[index]
        if op.kind == "lint":
            if lint_summary(report) != op.expect:
                out.fail(f"{op.cell}: lint findings differ from the golden")
            continue
        checks += 1
        complete = report["complete"] and all(v["complete"] for v in report["variants"])
        decided += complete
        if op.cell[0] == "litmus":
            litmus_fences += sum(v["full_fences"] for v in report["variants"])
        for problem in check_problems(op, report) if report["complete"] else ():
            out.fail(f"{op.cell}: {problem}")
    out.metrics["decided_fraction"] = (decided / checks, "fraction", f"{decided}/{checks} check cells")
    # Quality counts cover the litmus cells only: they do not depend on
    # the seed, which picks the generated programs.
    out.metrics["full_fences"] = (litmus_fences, "count", "litmus check cells")
    cost = 0
    for name in LITMUS_TESTS:
        for arch, model in (("x86", "x86-tso"), ("arm", "arm"), ("power", "power")):
            for variant in VARIANTS:
                cost += Session().analyze(AnalyzeRequest(
                    program=ProgramSpec.litmus(name), variant=variant, model=model,
                    arch=arch, synthesis=CHECK_MODELS[model])).fence_cost
    out.metrics["fence_cost_cycles"] = (cost, "cycles", "litmus x {x86,arm,power} x variants")
    simulated_quality(out, [ProgramSpec.litmus(n) for n in LITMUS_TESTS], trace,
                      "litmus x86 control placements")
    return out


# --- serve-edit -----------------------------------------------------------------
FN_HEADER = re.compile(r"^fn (\w+)\([^)]*\) \{\n", re.M)


class Editor:
    """One editor connection's programs and its seeded request stream.

    Programs come in seeded rounds that visit each of them once, so
    every run sends the same mix. In every block of three requests one
    seeded position is an edit of a seeded function: a fresh dead local
    goes at the top of its body. The other two resend a program
    unchanged.
    """

    def __init__(self, client: int, programs: list[str], sources: dict[str, str], seed: int) -> None:
        self.client = client
        self.programs = programs
        self.sources = {name: sources[name] for name in programs}
        self.rng = random.Random(f"serve-edit:{seed}:{client}")
        self.sent = 0
        self.edits = 0
        self._edit_slot = 0
        self._round: list[str] = []

    def next_request(self) -> tuple[str, str, str]:
        """(kind, program, source) of the next request."""
        if self.sent % 3 == 0:
            self._edit_slot = self.rng.randrange(3)
        if not self._round:
            self._round = self.rng.sample(self.programs, len(self.programs))
        name = self._round.pop()
        kind = "repeat"
        if self.sent % 3 == self._edit_slot:
            kind = "edit"
            source = self.sources[name]
            headers = list(FN_HEADER.finditer(source))
            header = headers[self.rng.randrange(len(headers))]
            self.edits += 1
            dead = f"  local bench_edit_{self.client}_{self.edits} = {self.edits};\n"
            self.sources[name] = source[:header.end()] + dead + source[header.end():]
        self.sent += 1
        return kind, name, self.sources[name]


def analyze_line(name: str, source: str) -> str:
    return json.dumps(AnalyzeRequest(
        program=ProgramSpec.inline(source, name=name), **SERVED).to_payload())


class Connection:
    """One JSON-lines client connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.file = self.sock.makefile("rwb")

    def call(self, line: str) -> dict:
        self.file.write(line.encode("utf-8") + b"\n")
        self.file.flush()
        reply = self.file.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class Server:
    """A ``repro serve --workers 0`` subprocess (optionally traced)."""

    def __init__(self, env: dict, trace_path: Path | None = None) -> None:
        if trace_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--workers", "0"]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       "--workers", "0", "--trace", str(trace_path)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        try:
            announce = json.loads(self.proc.stdout.readline() or b"null")
            self.port = announce["serving"]["port"]
        except (TypeError, KeyError, ValueError):
            self.stop()
            raise RuntimeError("repro serve did not announce a port") from None

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                control = Connection(self.port)
                control.call(json.dumps({"op": "shutdown"}))
                control.close()
                self.proc.wait(timeout=60)
            except (OSError, AttributeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def metrics(self) -> dict:
        control = Connection(self.port)
        try:
            return control.call(json.dumps({"op": "metrics"}))["metrics"]
        finally:
            control.close()


def start_warm_server(env: dict, sources: dict[str, str], trace_path: Path | None = None,
                      probes: tuple[SpeedProbe, SpeedProbe] | None = None):
    """Start a server and warm it over the whole corpus; returns the
    server, the set-up seconds as (server start, warm-up round trips)
    and the warm-up replies. With ``probes`` (a load and a compute
    probe), untimed slices go with each part: load slices right before
    and after the start, which is mostly an interpreter's imports, and
    a compute slice before each warm-up request, which is analysis."""
    if probes is not None:
        probes[0].sample(SERVE_START_PROBE_SLICES)
        gc.collect()
    started = time.perf_counter()
    server = Server(env, trace_path)
    start_s = time.perf_counter() - started
    warm_s = 0.0
    try:
        if probes is not None:
            probes[0].sample(SERVE_START_PROBE_SLICES)
            gc.collect()
        warm = Connection(server.port)
        replies = {}
        for name, source in sources.items():
            if probes is not None:
                probes[1].sample()
            line = analyze_line(name, source)
            started = time.perf_counter()
            replies[name] = warm.call(line)
            warm_s += time.perf_counter() - started
        warm.close()
    except BaseException:
        server.stop()
        raise
    return server, (start_s, warm_s), replies


def drive(server: Server, editors: list[Editor], seconds: float | None = None,
          count: int | None = None, probe: SpeedProbe | None = None) -> tuple[list, float]:
    """Run every editor as a closed-loop client on its own connection,
    for ``seconds`` or for ``count`` requests each, taking a
    speed-probe slice after each reply; returns
    ``(kind, name, source, seconds, reply, client, end time)`` records
    and the elapsed time."""
    records: list[tuple] = []
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client(editor: Editor) -> None:
        connection = Connection(server.port)
        try:
            sent = 0
            while (count is None and time.perf_counter() < deadline) or (count is not None and sent < count):
                kind, name, source = editor.next_request()
                line = analyze_line(name, source)
                started = time.perf_counter()
                reply = connection.call(line)
                ended = time.perf_counter()
                sent += 1
                with lock:
                    records.append((kind, name, source, ended - started, reply, editor.client, ended))
                if probe is not None:
                    probe.sample()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            connection.close()

    gc.collect()
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    threads = [threading.Thread(target=client, args=(e,)) for e in editors]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    if errors or any(t.is_alive() for t in threads):
        raise RuntimeError(f"serve-edit client failed: {errors[:1]}")
    return records, time.perf_counter() - started


def serve_edit(seed: int, seconds: float, trace: bool, env: dict, out_dir: Path) -> Outcome:
    out = Outcome()
    names = corpus_names()
    sources = {name: get_program(name).source for name in names}
    # Seeded halves of equal weight: programs are paired by source size
    # and the seed picks which connection gets each member of a pair.
    rng = random.Random(f"serve-edit:{seed}")
    by_size = sorted(names, key=lambda n: (len(sources[n]), n))
    halves: list[list[str]] = [[], []]
    for i in range(0, len(by_size), 2):
        for side, name in zip(rng.sample((0, 1), 2), by_size[i:i + 2]):
            halves[side].append(name)

    def editors() -> list[Editor]:
        return [Editor(i, half, sources, seed) for i, half in enumerate(halves)]

    if trace:
        records, warm = traced_serve(out, env, sources, editors,
                                     out_dir / f"serve-edit-{seed}.trace.json")
    else:
        setups = []
        for attempt in range(SERVE_SETUP_REPEATS):
            load, compute = SpeedProbe(load_slice, LOAD_REFERENCE_S), SpeedProbe()
            server, (start_s, warm_s), warm = start_warm_server(env, sources, probes=(load, compute))
            setups.append((start_s * load.factor() + warm_s * compute.factor(), start_s + warm_s))
            if attempt < SERVE_SETUP_REPEATS - 1:
                server.stop()
        probe = SpeedProbe()
        try:
            records, _elapsed = drive(server, editors(), seconds=seconds, probe=probe)
            out.metrics["peak_rss_mb"] = (peak_rss_mb(server.proc.pid), "MB", "server process")
        finally:
            server.stop()
        out.measured["setup_s"] = statistics.median(m for _, m in setups)
        out.metrics["setup_s"] = (
            statistics.median(s for s, _ in setups), "s",
            f"median of {len(setups)} server starts + corpus warm-ups, "
            f"{out.measured['setup_s']:.3f} measured",
        )
        # Throughput counts round-trip time per connection, so neither
        # probe slices nor request building between round trips count.
        latency_metrics(
            out,
            [(r[3], r[6]) for r in records],
            [(r[3], r[6]) for r in records if r[0] == "edit"],
            "edit requests",
            [[(r[3], r[6]) for r in records if r[5] == client] for client in (0, 1)],
            probe,
        )

    # Reference: a one-shot in-process analysis of every distinct source.
    references: dict[tuple[str, str], str] = {}
    warm_records = [("warm", n, sources[n], 0.0, warm[n], None, 0.0) for n in names]
    for kind, name, source, _seconds, reply, _client, _ended in records + warm_records:
        out.attempted += kind != "warm"
        if not reply.get("ok"):
            out.fail(f"{kind} {name}: {reply.get('error')}")
            continue
        if (name, source) not in references:
            report = Session().analyze(AnalyzeRequest.from_payload(json.loads(analyze_line(name, source))))
            references[(name, source)] = canonical(report.to_payload())
        if canonical(reply["report"]) != references[(name, source)]:
            out.fail(f"{kind} {name}: served report differs from a one-shot analysis")
    reports = [warm[n]["report"] for n in names if warm[n].get("ok")]
    out.metrics["full_fences"] = (sum(r["full_fences"] for r in reports), "count", "unedited programs")
    out.metrics["fence_cost_cycles"] = (sum(r["fence_cost"] for r in reports), "cycles", "unedited programs")
    if trace:
        layers.install()
    simulated_quality(out, [ProgramSpec.corpus(n) for n in names], trace, "x86 control placements")
    out.metrics["decided_fraction"] = (1.0, "fraction", "analyses carry no state budget")
    return out


def traced_serve(out: Outcome, env: dict, sources: dict, editors, trace_path: Path) -> tuple[list, dict]:
    """The traced serve-edit run: the same fixed schedule against an
    untraced server and against a server running the layer wrappers
    under ``repro serve --trace``, alternating in chunks so the tracing
    overhead compares both at the same moment. Returns every record and
    the traced server's warm-up replies."""
    plain, _, _ = start_warm_server(env, sources)
    try:
        server, _, warm = start_warm_server(env, sources, trace_path)
        try:
            before = server.metrics()
            since_us = time.time_ns() // 1000
            # (server, its editors, its records, its elapsed seconds)
            sides = [(plain, editors(), [], [0.0]), (server, editors(), [], [0.0])]
            for chunk in range(TRACED_SERVE_REQUESTS // TRACED_SERVE_CHUNK):
                for target, side_editors, side_records, elapsed in (sides if chunk % 2 == 0 else sides[::-1]):
                    chunk_records, seconds = drive(target, side_editors, count=TRACED_SERVE_CHUNK)
                    side_records += chunk_records
                    elapsed[0] += seconds
            after = server.metrics()
        finally:
            server.stop()
    finally:
        plain.stop()
    untraced, records = sides[0][2], sides[1][2]
    events = [e for e in json.loads(trace_path.read_text())["traceEvents"] if e["ts"] >= since_us]
    out.layers.update(layers.layer_metrics(events, len(records)))

    def delta(name: str) -> float:
        return (layers.counter_total(after["counters"], name)
                - layers.counter_total(before["counters"], name))

    out.layers.update(layers.query_metrics(
        delta("repro_query_hits_total"), delta("repro_query_misses_total"),
        delta("repro_query_computes_total"),
    ))
    out.layers["memmodel.sleep_blocked"] = delta("repro_explore_sleep_blocked_total")
    served = [
        (after["histograms"][key]["sum"] - before["histograms"].get(key, {}).get("sum", 0.0),
         after["histograms"][key]["count"] - before["histograms"].get(key, {}).get("count", 0))
        for key in after["histograms"] if key.startswith("repro_serve_request_seconds")
    ]
    server_ms = sum(s for s, _ in served) / max(sum(n for _, n in served), 1) * 1000
    out.layers["serve.server_ms"] = server_ms
    out.layers["serve.transport_ms"] = statistics.fmean(r[3] for r in records) * 1000 - server_ms
    out.layers["obs.tracing_overhead"] = sides[1][3][0] / sides[0][3][0] - 1.0
    return records + untraced, warm
