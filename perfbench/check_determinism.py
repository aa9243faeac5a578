#!/usr/bin/env python3
"""Determinism test for the benchmark.

    python3 perfbench/check_determinism.py [--workloads verify ...] [--seeds 7 8]

For each workload it makes three traced runs, each a fresh process:
two with the first seed and one with the second. It passes when

* the two same-seed runs give identical quality metrics
  (``full_fences``, ``fence_cost_cycles``, ``fenced_sim_cycles``,
  ``decided_fraction``) and identical per-layer counts (every
  ``per_layer`` metric whose unit is ``count`` or ``ratio``, except the
  timing ratio ``obs.tracing_overhead``);
* the other seed reports the same set of metrics, all outputs correct;
  it may change the values, since it changes the inputs.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUALITY = ("full_fences", "fence_cost_cycles", "fenced_sim_cycles", "decided_fraction")


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, check=True, timeout=900, stdout=subprocess.DEVNULL,
    )
    path = ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs=2, type=int, default=(7, 8))
    args = parser.parse_args()
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in ("count", "ratio") and m["name"] != "obs.tracing_overhead"]

    ok = True
    for workload in args.workloads:
        first, again, other = (
            traced_run(workload, seed, spec["run_seconds"])
            for seed in (args.seeds[0], args.seeds[0], args.seeds[1])
        )
        problems = []
        for run in (first, again, other):
            if not run["correct"]:
                problems.append(f"seed {run['seed']}: outputs incorrect: {run['problems'][:3]}")
        for name in QUALITY:
            if first["end_to_end"][name] != again["end_to_end"][name]:
                problems.append(f"{name}: {first['end_to_end'][name]} then {again['end_to_end'][name]}")
        for name in counts:
            if first["per_layer"][name] != again["per_layer"][name]:
                problems.append(f"{name}: {first['per_layer'][name]} then {again['per_layer'][name]}")
        for section in ("end_to_end", "per_layer"):
            if set(first[section]) != set(other[section]):
                problems.append(f"seed {args.seeds[1]} reports other {section} metrics")
        changed = sorted(n for n in counts if first["per_layer"][n] != other["per_layer"][n])
        print(f"{workload}: {len(QUALITY)} quality metrics and {len(counts)} per-layer counts "
              f"{'repeat' if not problems else 'DIFFER'}; seed {args.seeds[1]} changes "
              f"{len(changed)} counts ({', '.join(changed) or 'none'})")
        for problem in problems:
            print(f"  {problem}")
        ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
