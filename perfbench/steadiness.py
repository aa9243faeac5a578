#!/usr/bin/env python3
"""Steadiness report: run each workload N times and compare spreads to bounds.

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workloads verify ...]

Every run is a fresh ``perfbench/run.py`` process with its own seed
(``--seed-base`` + run index). Per end-to-end metric the report prints
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over the median) and the metric's bound from
``BENCHMARK.json``; ``steady`` means the spread is under a third of the
bound. Times are reported at reference machine speed; the ``raw``
column is the spread of the same metric as measured, before the speed
factor. With ``--sets 2`` a second set of runs on fresh seeds follows,
and the report also checks that its median is not worse than the first
set's by more than the bound. Raw values go to
``.perfbench-out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line, with the measured (unscaled) times of its
    full record added under ``measured``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    record = ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["measured"] = json.loads(record.read_text(encoding="utf-8"))["measured"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    raw: dict = {}
    ok = True
    for workload in args.workloads:
        sets = []
        for index in range(args.sets):
            results = []
            for run in range(args.runs):
                seed = args.seed_base + index * args.runs + run
                result = run_once(workload, seed, args.seconds, 0)
                ok &= result["correct"]
                results.append(result)
                print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                      file=sys.stderr, flush=True)
            sets.append(results)
        raw[workload] = sets
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s)")
        print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'raw':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, share = spread(values)
                medians.append(median)
                raw_spread = (f"{spread([r['measured'][name] for r in results])[3]:8.4f}"
                              if name in results[0]["measured"] else f"{'-':>8}")
                verdict = "steady" if share < bound / 3 else ("within bound" if share <= bound else "TOO NOISY")
                ok &= verdict != "TOO NOISY"
                print(f"{name:20} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {raw_spread} {bound:6.3f}  {verdict}")
            if len(medians) == 2:
                drift = worse_by(medians[0], medians[1], metric["better"])
                agree = drift <= bound
                ok &= agree
                print(f"{'':20} second median worse by {drift:+.4f} ({'ok' if agree else 'EXCEEDS BOUND'})")
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
