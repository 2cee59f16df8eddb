"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --runs 10 [--trace 0|1] [--workload NAME ...]
                               [--out perfbench/baseline.json]

Run i uses seed i, for i = 0 .. runs-1.

For every workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread: the distance between the quartiles
as a share of the median.  End-to-end spreads are shown next to their bounds
from BENCHMARK.json.  With --out it writes the summary and each run's
provenance line as a trajectory point, merging into the file if it exists
(--trace 0 fills "end_to_end", --trace 1 fills "per_layer").  Stops at the
first run that fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    info = next(json.loads(line[len("# provenance "):]) for line in lines
                if line.startswith("# provenance "))
    return json.loads(lines[-1]), info


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    doc = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["run_seconds"] = spec["run_seconds"]
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in range(args.runs)]
        metrics = {name: summarise([r["metrics"][name]["value"] for r, _ in runs])
                   for name in bounds}
        for name, s in metrics.items():
            line = f"{workload:14s} {name:50s} median {s['median']:.6g}"
            if "spread" in s:
                line += f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
            if bounds[name] is not None:
                line += f"  (bound {bounds[name]})"
            print(line, flush=True)
        doc["workloads"].setdefault(workload, {})[kind] = {
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "provenance": [info for _, info in runs],
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
