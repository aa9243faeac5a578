#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 15 --trace 0

Workloads: ``corpus-sweep``, ``serve-edit`` and ``verify`` (see
``perfbench/DESIGN.md``). Every metric is printed by name with its unit
and a note (sample counts for percentiles); the last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``. The full result of every
run is also written to ``.perfbench-out/``.

The run re-executes itself with a fixed ``PYTHONHASHSEED`` so set and
dict iteration orders, and with them the counts, repeat exactly; the
server subprocess inherits it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("corpus-sweep", "serve-edit", "verify")
HASH_SEED = "0"
#: Fresh-interpreter set-ups per in-process run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Load-probe slices right before and right after each set-up.
SETUP_PROBE_SLICES = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measuring time; in-process workloads "
                             "round it up to whole passes over their inputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up probe
    return parser.parse_args(argv)


def setup_seconds(args: argparse.Namespace) -> tuple[float, float]:
    """Median time of set-ups in fresh interpreters (see
    :func:`one_setup`), at reference machine speed and as measured."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, env=child_env(), check=True, timeout=120,
            capture_output=True, text=True,
        )
        seconds, factor = json.loads(proc.stdout.splitlines()[-1])
        times.append((seconds * factor, seconds))
    return statistics.median(t for t, _ in times), statistics.median(m for _, m in times)


def one_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Time this fresh interpreter's set-up: importing the package and
    building the workload's inputs. Returns the measured seconds and the
    speed factor of load-probe slices taken right before and right after."""
    from speed import LOAD_REFERENCE_S, SpeedProbe, load_slice

    probe = SpeedProbe(load_slice, LOAD_REFERENCE_S)
    probe.sample(SETUP_PROBE_SLICES)
    gc.collect()
    started = time.perf_counter()
    import workloads

    {"corpus-sweep": workloads.corpus_sweep_inputs,
     "verify": workloads.verify_inputs}[args.workload](args.seed)
    seconds = time.perf_counter() - started
    probe.sample(SETUP_PROBE_SLICES)
    return seconds, probe.factor()


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv], child_env())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_only:
        print(json.dumps(one_setup(args)))
        return 0
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "serve-edit":
        outcome = workloads.serve_edit(args.seed, args.seconds, trace, child_env(), OUT_DIR)
    else:
        setup = None if trace else setup_seconds(args)
        run = workloads.corpus_sweep if args.workload == "corpus-sweep" else workloads.verify
        outcome = run(args.seed, args.seconds, trace, OUT_DIR)
        if setup is not None:
            outcome.measured["setup_s"] = setup[1]
            outcome.metrics["setup_s"] = (setup[0], "s", f"median of {SETUP_REPEATS} fresh-interpreter "
                                                          f"set-ups, {setup[1]:.3f} measured")

    for problem in outcome.problems:
        print(f"DEFECT {args.workload}: {problem}")
    failed_fraction = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_fraction {failed_fraction:.6f} ({outcome.failed}/{outcome.attempted} ops)")
    for name, (value, unit, note) in sorted(outcome.metrics.items()):
        print(f"{name} {value:.6g} {unit} ({note})")
    for name, value in sorted(outcome.layers.items()):
        print(f"layer {name} {value:.6g}")

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome.layers if trace else {k: v[0] for k, v in outcome.metrics.items()}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=outcome.problems, end_to_end={k: v[0] for k, v in outcome.metrics.items()},
                  measured=outcome.measured, per_layer=outcome.layers)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # noqa: BLE001 - report, print no result line
        traceback.print_exc()
        sys.exit(1)
