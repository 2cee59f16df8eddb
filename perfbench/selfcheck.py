"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and checks that:
- every metric named in BENCHMARK.json is printed, with its unit, in the last
  line of stdout, and failed_frac is printed by name;
- a deliberately wrong frozen answer raises failed_frac above 0 and makes the
  command exit nonzero;
- a directory holding only the benchmark (no pencillab sources) makes the
  command exit nonzero without printing a result.
Exits 1 on the first set of problems, after listing them.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

from common import BENCH_DIR, OUT_DIR, ROOT
from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS

RUN = os.path.join(BENCH_DIR, "run.py")
problems: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT, script: str = RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def failed_frac(stdout: str) -> float | None:
    match = re.search(r"^failed_frac = (\S+) fraction", stdout, re.MULTILINE)
    return float(match.group(1)) if match else None


def check_declared_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    check(sorted(declared) == sorted(END_TO_END),
          "BENCHMARK.json end_to_end differs from run.py END_TO_END")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(sorted(declared) == sorted(PER_LAYER),
          "BENCHMARK.json per_layer differs from run.py PER_LAYER")
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names a workload run.py does not have")


def check_metrics_printed() -> None:
    for workload in WORKLOADS:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            proc, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            if result is None:
                problems.append(f"{where}: last line is not JSON")
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{where}: checks failed: {result['failed']} of {result['attempted']}")
            check(failed_frac(proc.stdout) == 0.0, f"{where}: failed_frac not printed as 0")
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(name for name, _ in wanted),
                  f"{where}: metric names differ from the declared ones")
            for name, unit in wanted:
                got = metrics.get(name, {})
                check(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
                      f"{where}: {name} printed as {got}")


def check_wrong_answer_detected(scratch: str) -> None:
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        expected = json.load(fh)
    expected["cli"]["fixed"][0]["stdout"] = '{"wrong": true}\n'
    expected["delta_zero"] = [[p, k, d0 + 1] for p, k, d0 in expected["delta_zero"]]
    for counts in expected["ladder"]["counts"]:
        counts["F_31 c=2"] += 1
    wrong = os.path.join(scratch, "wrong-expected.json")
    with open(wrong, "w") as fh:
        json.dump(expected, fh)
    for workload in ("cli_cold", "ladder", "combinatorics"):
        proc, result = run(workload, 0, "--expected", wrong)
        where = f"{workload} with a wrong expected value"
        check(proc.returncode != 0, f"{where}: exit code 0")
        check(result is not None and result["failed"] > 0 and not result["correct"],
              f"{where}: result does not report the failure")
        frac = failed_frac(proc.stdout)
        check(frac is not None and frac > 0, f"{where}: failed_frac is {frac}")


def check_fails_without_sources(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = run("ladder", 0, cwd=bare, script=os.path.join("perfbench", "run.py"))
    check(proc.returncode != 0, "without sources: exit code 0")
    check(result is None, "without sources: a result was printed")


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=OUT_DIR)
    try:
        check_declared_metrics()
        check_fails_without_sources(scratch)
        check_wrong_answer_detected(scratch)
        check_metrics_printed()
    finally:
        shutil.rmtree(scratch)
    for message in problems:
        print(f"FAIL {message}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
