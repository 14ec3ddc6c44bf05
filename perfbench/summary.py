"""Run the benchmark over several seeds and summarise it per workload.

    python3 perfbench/summary.py [--workloads a,b] [--seeds 10] [--first-seed 0]
                                 [--trace-seeds 1] [--baseline FILE]

For each workload, runs `run.py` once per seed with the run length from
BENCHMARK.json, then prints every end-to-end metric's median, quartiles
and spread (q3 - q1 over the median, as `statistics.quantiles(n=4)`
gives them) beside its bound, plus the error rate over all runs.  With
--trace-seeds N it also makes N traced runs per workload and prints the
per-layer medians.  --baseline writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace-seeds", type=int, default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}

    for name in names:
        results = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted, "end_to_end": {}}
        print(f"{name}: error_rate {failed / attempted:.4g} ({failed} of {attempted} runs)")
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in results])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][metric["name"]] = stats
            print(f"  {metric['name']:<12} median {stats['median']:.4f} {metric['unit']} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} n={stats['n']} "
                  f"spread {stats['spread']:.4f} bound {metric['bound']}")
        if args.trace_seeds:
            traced = [run_once(name, s, spec["run_seconds"], 1)
                      for s in range(args.first_seed, args.first_seed + args.trace_seeds)]
            entry["per_layer"] = {}
            for metric in spec["per_layer"]:
                values = [r["metrics"][metric["name"]]["value"] for r in traced]
                entry["per_layer"][metric["name"]] = {
                    "median": statistics.median(values), "unit": metric["unit"], "n": len(values)}
                print(f"  {metric['name']:<28} {statistics.median(values):.6g} {metric['unit']}")
        report["workloads"][name] = entry
        sys.stdout.flush()

    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
