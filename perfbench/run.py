"""pencillab benchmark: run one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_cold, pair_curves, ladder, combinatorics (see BENCHMARK.json
for why each exists, and perfbench/README.md for why pair_curves and
combinatorics are not in it).  Each is a closed loop with one client: the
next task starts when the previous one ends.  The timed phase runs whole
rounds of the workload's task mix until about --seconds have passed.

--trace 0 prints the end-to-end metrics, with every time scaled to the
reference speed of the machine (see reference.py); --trace 1 prints the per-layer ones,
from a pass over the same rounds with spans recorded, and writes the spans to
perfbench/out/.  Human-readable lines come first; the last line of stdout is
one JSON object with keys correct, attempted, failed and metrics.  Any failed
check makes the exit code 1.  The working files live in a temporary directory
under perfbench/out/, removed at the end.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from common import BENCH_DIR, OUT_DIR, SRC, provenance
import reference
from spans import NullTracer, Tracer

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _calls_busy(*names: str) -> list[tuple[str, str]]:
    return [(f"{n}.{suffix}", unit) for n in names for suffix, unit in
            (("calls", "count"), ("busy_s", "s"))]


# Per-layer metrics by group; a workload's traced pass measures the groups it
# covers and a probe measures the rest, except the cache counts, which are
# counted only where a workload writes entries.
GROUPS = {
    "cli": [("cli.python_start_s", "s"), ("cli.import_s", "s"), ("cli.main_s", "s")],
    "pencil_geometry": _calls_busy(
        "pencil_geometry.bezoutian_curve.Q", "pencil_geometry.bezoutian_curve.Fq",
        "pencil_geometry.is_reduced_curve.Q", "pencil_geometry.is_reduced_curve.Fq",
        "pencil_geometry.same_fiber", "pencil_geometry.change_basis",
        "pencil_geometry.has_multiple_base_points", "pencil_geometry.wronskian",
    ),
    "search": _calls_busy(
        "severi_degeneration.search.q31", "severi_degeneration.search.q101",
        "severi_degeneration.search.ram", "severi_degeneration.search.strata",
        "severi_degeneration.compile_constraint",
    ) + [
        ("severi_degeneration.search.candidates", "count"),
        ("severi_degeneration.search.matches", "count"),
        ("severi_degeneration.search.match_ratio", "fraction"),
        ("severi_degeneration.search.parallel_efficiency", "fraction"),
    ],
    "cache": [
        ("severi_degeneration.cache.entries_written", "count"),
        ("severi_degeneration.cache.bytes_written", "bytes"),
        ("severi_degeneration.cache.hit_s", "s"),
    ],
    "conic": _calls_busy("severi_degeneration.intersect_with_conic"),
    "alpha": _calls_busy(
        "severi_degeneration.exists_alpha", "severi_degeneration.enumerate_alpha"
    ),
    "monodromy": _calls_busy(
        "monodromy.enumerate_tuples", "monodromy.enumerate_tuples.exhaustive",
        "monodromy.count_tuples", "monodromy.construct_tuple",
    ) + [("monodromy.tuples_returned", "count")],
    "numerology": _calls_busy(
        "numerology.delta_zero", "numerology.severi_nonempty", "numerology.profile_report"
    ),
    "trace": [("trace.overhead_frac", "fraction")],
}
PER_LAYER = [metric for group in GROUPS.values() for metric in group]

SETUP_REPEATS = 7


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every round; for the self-check")
    parser.add_argument("--expected", default=os.path.join(BENCH_DIR, "expected.json"),
                        help="frozen answers to check against")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Outcome:
    """Tally of one pass: task latencies, work units and failed checks."""

    def __init__(self):
        self.latencies: list[float] = []
        self.units = 0
        self.failures: list[str] = []
        self.failed = 0
        self.rounds = 0
        self.wall = 0.0
        self.round_walls: list[float] = []
        self.round_slowest: list[tuple[float, str]] = []  # (latency, label) per round
        self.round_cpus: list[float] = []
        self.ref_times: list[dict[str, float]] = []  # before each task (reference.py)


def _cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_rounds(workload, tr, seconds: float | None = None, rounds: int | None = None,
               references: bool = False):
    """Whole rounds until `seconds` would be overrun by half a round, or `rounds`.

    With `references`, the reference jobs run right before every task; round
    walls and CPU times cover the tasks only.
    """
    out = Outcome()
    start = time.perf_counter()
    while True:
        if rounds is not None and out.rounds == rounds:
            break
        if rounds is None and out.rounds:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / out.rounds >= seconds:
                break
        wall = cpu = 0.0
        slowest = (0.0, "")
        for n, (label, task) in enumerate(workload.round(out.rounds)):
            if references:
                out.ref_times.append(reference.reference_times())
            tr.task = f"{out.rounds}.{n}"
            cpu0, t0 = _cpu_now(), time.perf_counter()
            try:
                with tr.span("task"):
                    units, errors = task(tr)
            except Exception as exc:  # a raising task is a failed task, not a crash
                units, errors = 0, [f"{label}: {type(exc).__name__}: {exc}"]
            out.latencies.append(time.perf_counter() - t0)
            cpu += _cpu_now() - cpu0
            wall += out.latencies[-1]
            slowest = max(slowest, (out.latencies[-1], label))
            out.units += units
            if errors:
                out.failed += 1
                out.failures.extend(errors)
        out.round_walls.append(wall)
        out.round_slowest.append(slowest)
        out.round_cpus.append(cpu)
        out.rounds += 1
    out.wall = time.perf_counter() - start
    return out


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def _setup_times(args, repeats: int) -> tuple[list[float], list[dict]]:
    """Wall times of fresh processes that only set the workload up, start to exit,
    each preceded by the reference jobs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--expected", args.expected, "--setup-only"]
    times, refs = [], []
    for _ in range(repeats):
        refs.append(reference.reference_times())
        start = time.perf_counter()
        subprocess.run(cmd + (["--tiny"] if args.tiny else []), check=True)
        times.append(time.perf_counter() - start)
    return times, refs


def end_to_end(args, workload, timed: Outcome) -> tuple[dict, dict]:
    rss = _peak_rss_mb()
    setups, setup_refs = _setup_times(args, 1 if args.tiny else SETUP_REPEATS)
    # Every round does the same amount of work, so medians over rounds keep a
    # burst of contention on the machine from moving the whole run.
    raw = {
        "throughput_per_s": timed.units / timed.rounds / statistics.median(timed.round_walls),
        "latency_p50_s": statistics.median(timed.latencies),
        # The slowest task of each round, median over rounds: unlike a
        # percentile of all tasks, it stays on the same task kind when a
        # change alters how many rounds fit into the run.
        "latency_tail_s": statistics.median(t for t, _ in timed.round_slowest),
        "cpu_s": statistics.median(timed.round_cpus),
        "setup_s": statistics.median(setups),
    }
    # Times in seconds at the reference speed (see reference.py).
    speed, ref_medians = reference.speed(timed.ref_times)
    setup_speed, setup_ref_medians = reference.speed(setup_refs)
    values = {
        "throughput_per_s": raw["throughput_per_s"] / speed,
        "latency_p50_s": raw["latency_p50_s"] * speed,
        "latency_tail_s": raw["latency_tail_s"] * speed,
        "cpu_s": raw["cpu_s"] * speed,
        "peak_rss_mb": rss,
        "setup_s": raw["setup_s"] * setup_speed,
    }
    notes = {
        "throughput_unit": f"{workload.unit} per second, median round",
        "cpu_s": "user+sys CPU of the median round, children included",
        "speed": speed,
        "reference_median_s": ref_medians,
        "setup_speed": setup_speed,
        "setup_reference_median_s": setup_ref_medians,
        "raw": raw,
        "latency_samples": len(timed.latencies),
        "slowest_task_per_round": collections.Counter(
            label for _, label in timed.round_slowest).most_common(),
        "rounds": timed.rounds,
        "timed_wall_s": round(timed.wall, 3),
        "work_units": timed.units,
        "setup_samples_s": [round(t, 4) for t in setups],
    }
    return values, notes


def per_layer(args, workload, workdir: str) -> tuple[dict, dict, list[Outcome]]:
    from workloads import probe, traced_compile

    # one round first, so that neither pass pays for first-call warm-up
    warm = run_rounds(workload, NullTracer(), rounds=1)
    plain = run_rounds(workload, NullTracer(), seconds=args.seconds / 2)
    tr = Tracer()
    with traced_compile(tr):
        traced = run_rounds(workload, tr, rounds=plain.rounds)
    extras = workload.extras()
    probed = set(GROUPS) - workload.covered - {"cache", "trace"}
    extras.update(probe(probed, tr, workload.expected, workdir))
    totals, counts = tr.layer_totals(), tr.counts
    extras["severi_degeneration.search.match_ratio"] = (
        counts.get("severi_degeneration.search.matches", 0)
        / max(1, counts.get("severi_degeneration.search.candidates", 0)))
    extras["trace.overhead_frac"] = (traced.wall - plain.wall) / plain.wall
    values = {}
    for name, unit in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if name in extras:
            values[name] = extras[name]
        elif suffix in ("calls", "busy_s"):
            calls, busy = totals.get(base, (0, 0.0))
            values[name] = calls if suffix == "calls" else busy
        elif unit in ("count", "bytes"):
            values[name] = counts.get(name, 0)
        else:
            raise RuntimeError(f"per-layer metric {name} was not measured")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    tr.dump(path)
    notes = {"rounds_per_pass": plain.rounds, "spans_file": os.path.relpath(path),
             "probed_groups": sorted(probed)}
    return values, notes, [warm, plain, traced]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pencillab", "__init__.py")):
        print(f"pencillab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(args.expected) as fh:
        expected = json.load(fh)
    load = os.getloadavg()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, expected, args.tiny)
        workload.setup()
        if args.setup_only:
            return 0
        if args.trace:
            values, notes, passes = per_layer(args, workload, workdir)
            units = dict(PER_LAYER)
        else:
            timed = run_rounds(workload, NullTracer(), seconds=args.seconds,
                               references=True)
            values, notes = end_to_end(args, workload, timed)
            passes = [timed]
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [msg for p in passes for msg in p.failures]
    info = provenance(args.workload, args.seed, load)
    info.update(notes)
    print("# provenance " + json.dumps(info, sort_keys=True))
    for msg in failures[:20]:
        print(f"# FAILED {msg}")
    print(f"failed_frac = {failed / attempted:.6g} fraction ({failed} of {attempted} tasks)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
