#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fine_grid --workload ensemble --runs 10
    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

For every workload it runs `run.py` once per seed (first-seed, first-seed+1,
...), one run at a time, and prints per metric the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median.  An
end-to-end metric is marked UNSTEADY when its spread exceeds a third of its
bound in BENCHMARK.json.  With --out, medians, quartiles, every value and the
provenance of the first run are merged into that JSON file under the trace
level, so one file can hold both the untraced and the traced baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import OUT_DIR, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default all workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="merge the summary into this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    steady = True
    for workload in args.workload or list(WORKLOADS):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']}", flush=True)
        per_metric = {}
        for name, first in results[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = first["unit"]
            per_metric[name] = stats
            flag = ""
            if name in bounds and stats["spread"] > bounds[name] / 3:
                flag, steady = "  UNSTEADY", False
            print(f"  {name:28s} median {stats['median']:12.6g} q1 {stats['q1']:12.6g} "
                  f"q3 {stats['q3']:12.6g} spread {stats['spread']:8.4f}{flag}")
        first_record = OUT_DIR / f"{workload}-seed{args.first_seed}-trace{args.trace}.json"
        summary[workload] = {
            "runs": len(results),
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "seconds": seconds,
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": per_metric,
            "provenance": json.loads(first_record.read_text())["provenance"],
        }
    if args.out:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged.setdefault(f"trace{args.trace}", {}).update(summary)
        args.out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
