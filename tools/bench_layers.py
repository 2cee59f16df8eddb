"""Time the layers of the search path, cold, and print the medians as JSON.

    python3 tools/bench_layers.py                      # every case, 5 repeats
    python3 tools/bench_layers.py --repeats 1 --only coerce
    python3 tools/bench_layers.py --src OTHER/src      # another checkout's tree

Each timed call runs right after perfbench's reference jobs (a fresh
`python -c pass` and a numpy sweep), as perfbench times its tasks, so that
every call starts with cold caches and a disturbed allocator.  Warm loops of
the same call read faster and flatter the kernel: an in-place kernel read
0.70-0.79 of its parent in warm loops and 0.85-0.93 cold.

The cases, in the order each repeat runs them:

- `_eliminate` on fixed seeded chunks shaped like the F_101 count rungs'
  packed systems (four conditions, the two unknowns of the largest cell) at
  2048 and 8192 rows, in int16 as those searches run them (their bound
  2 * 100^2 + 100 < 2^15, see `_kernel_dtype`) and in int32 as they ran
  before, batch last, each call on a fresh copy as `_eliminate` works in
  place;
- `_systems` over the whole packed g index of a k = 2 search over F_100003
  with one incidence, in int64 as searches past the int32 rule run it;
- `Field.coerce` of a plain int and `_move_to_origin` at k = 3 over F_31,
  in microseconds per call over a loop of MICRO_CALLS calls;
- each search of the `ladder` workload for variants 0-7, with its jobs and
  no cache, the median taken over the variants and the repeats;
- the 13 searches of a `ladder` round in one call, for each of variants
  0-7, with no cache and the chunk layouts of `_systems` already built
  (every search of the round shares them);
- the costs of a small search around its rank pass, on the ladder's F_31
  c = 2 search for variants 0-7: the whole search writing its entry into a
  fresh cache directory, as each `ladder` round's first search does, and
  its dense-cell f-row walk alone (`_walked_keys`, on plain ints, as the
  search calls it);
- the sparse sample route alone: `_sample_keys` on the ladder's F_101 c=3
  search for variants 0-7, the ladder's largest sparse route (102-203 kept
  g-rows), from the counts and kept rows of its rank pass, which runs once
  before the repeats;
- the cache on the ladder's F_31 c=2 search of variant 0 (20 samples):
  `_store_cached` writing its entry over the last one, and the whole
  search as a hit on an entry primed before the repeats;
- the k = 4 count over F_101 with four incidences (the ladder's incidence
  pairs of variant 0), and the k = 4 strata search over F_17 with the
  first two of them;
- `is_reduced_curve` on the pair curves of the 8 `pencil reduced` pencils
  frozen for `cli_cold`, and `intersect_with_conic` with the diagonal conic
  on those of its 8 `pencil conic-section` pencils, 8 calls a case;
- a cold `pencillab dimlab search --no-cache` process on each side of
  `_PLAIN_MAX_TESTS`: k = 2 over F_7 with one incidence (57 pencil tests,
  walked on plain ints without numpy) and k = 3 over F_7 with one
  incidence (2850 tests, the numpy rank kernel); the same k = 2 search
  with `--strata`, whose strata take only a closed form besides, so it too
  runs without numpy; and k = 3
  over F_7 with no conditions (2850 pencils, counted by formula and walked
  for samples, without numpy);
- a cold `pencillab` process for each group of modules a command loads:
  `numerology` (numerology alone), `pencil reduced` and `pencil
  conic-section` (pencil_geometry alone) on frozen `cli_cold` pencils, and
  a `reproduce unique-pencil` cache hit (pencil_geometry, numerology and the
  search module), its entry primed in a temporary cache directory.

Python's bytecode cache follows the environment (`PYTHONDONTWRITEBYTECODE`).

The output holds `nproc`, the versions, the tree measured, and `ms` (or
`us_per_call`) by case.  Times are raw, not scaled to a reference speed, so
compare two trees only within one machine and one hour, alternating them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
LADDER_VARIANTS = range(8)
MICRO_CALLS = 2000


def _eliminate_cases(sd):
    import numpy as np

    rng = np.random.default_rng(13)
    for rows in (2048, 8192):
        W = rng.integers(0, 101, size=(4, 3, rows), dtype=np.int32)
        # _eliminate works in place, so each call takes a fresh copy
        for dtype in (np.int32, np.int16):
            yield (f"_eliminate F_101 {rows}x4x3 {np.dtype(dtype)}", "ms",
                   lambda W=W.astype(dtype): sd._eliminate(W.copy(), 101))


def _systems_cases(P, fields, sd):
    import numpy as np

    k, q = 2, 100003
    F = fields.Field(q)
    constraint = sd.SearchConstraint(
        incidences=(P.sym_point(P.ProjPoint(F, 1, 1), P.ProjPoint(F, 1, 4)),))
    mats = np.array(sd.compile_constraint(k, q, constraint), dtype=sd._kernel_dtype(k, q))
    mats = mats.reshape(-1, k + 1, k + 1)
    rows = sum(q ** (k - j) for _, j in sd._cells(k))
    yield (f"_systems k={k} F_{q} {rows} g-rows {mats.dtype}", "ms",
           lambda: list(sd._systems(q, k, 0, rows, mats)))


def _micro_cases(P, fields):
    F = fields.Field(31)
    form = P.BinaryForm(F, 3, (3, 5, 7, 11))
    pt = P.ProjPoint(F, 1, 17)
    calls = range(MICRO_CALLS)

    def coerce():
        for _ in calls:
            F.coerce(29)

    def move():
        for _ in calls:
            P._move_to_origin(form, pt)

    yield "Field.coerce(int) F_31", "us", coerce
    yield "_move_to_origin k=3 F_31", "us", move


def _ladder_cases(P, fields, sd, pairs):
    import workloads  # perfbench's: the ladder's searches

    by_label: dict[str, list] = {}
    for variant in LADDER_VARIANTS:
        for label, _, q, constraint, jobs, strata in workloads.ladder_searches(
                P, fields, sd, variant, pairs):
            by_label.setdefault(label, []).append(
                lambda q=q, c=constraint, j=jobs, s=strata:
                sd.search_pencils_ffield(3, q, c, jobs=j, report_strata=s))
    for label, calls in by_label.items():
        yield f"ladder {label}", "ms", calls


def _small_search_cases(P, fields, sd, pairs, cache):
    import workloads

    directories = (os.path.join(cache, f"fresh-{n}") for n in itertools.count())
    walk, searches, walks = sd._walked_keys, [], []
    for variant in LADDER_VARIANTS:
        (q, constraint), = [(q, c) for label, _, q, c, _, _ in workloads.ladder_searches(
            P, fields, sd, variant, pairs) if label == "F_31 c=2"]
        searches.append(lambda q=q, c=constraint:
                        sd.search_pencils_ffield(3, q, c, cache_dir=next(directories)))
        calls = []  # the walks the search takes, as it calls them
        sd._walked_keys = lambda *args, calls=calls: calls.append(args) or walk(*args)
        try:
            sd.search_pencils_ffield(3, q, constraint)
        finally:
            sd._walked_keys = walk
        if calls:
            walks.append(lambda calls=calls: [walk(*args) for args in calls])
    yield "small search: F_31 c=2 with a fresh cache", "ms", searches
    yield "small search: F_31 c=2 dense walk", "ms", walks


def _sparse_route_cases(P, fields, sd, pairs):
    import workloads

    sample_keys, calls = sd._sample_keys, []
    for variant in LADDER_VARIANTS:
        (q, constraint, jobs), = [(q, c, j) for label, _, q, c, j, _ in workloads.ladder_searches(
            P, fields, sd, variant, pairs) if label == "F_101 c=3"]
        # the arguments the search's rank pass hands to _sample_keys
        sd._sample_keys = lambda *args: calls.append(args) or sample_keys(*args)
        try:
            sd.search_pencils_ffield(3, q, constraint, jobs=jobs)
        finally:
            sd._sample_keys = sample_keys
    yield ("sparse route: F_101 c=3 _sample_keys", "ms",
           [lambda args=args: sample_keys(*args) for args in calls])


def _cache_cases(P, fields, sd, pairs, cache):
    import workloads

    (q, constraint), = [(q, c) for label, _, q, c, _, _ in workloads.ladder_searches(
        P, fields, sd, 0, pairs) if label == "F_31 c=2"]
    result = sd.search_pencils_ffield(3, q, constraint)
    assert len(result.samples) == sd.SAMPLE_LIMIT
    spec_text = json.dumps(constraint.to_json_dict(), separators=(",", ":"))
    path = sd._cache_path(os.path.join(cache, "write"), 3, q, spec_text)
    hits = os.path.join(cache, "hit")
    yield ("cache write, 20 samples", "ms",
           lambda: sd._store_cached(path, 3, q, spec_text, result))
    yield "cache hit", "ms", lambda: sd.search_pencils_ffield(3, q, constraint, cache_dir=hits)


def _warm_ladder_cases(P, fields, sd, pairs):
    import workloads

    rounds = []
    for variant in LADDER_VARIANTS:
        searches = workloads.ladder_searches(P, fields, sd, variant, pairs)
        rounds.append(lambda searches=searches: [
            sd.search_pencils_ffield(3, q, c, jobs=j, report_strata=s)
            for _, _, q, c, j, s in searches])
    yield "ladder searches, layout warm", "ms", rounds


def _large_cases(P, fields, sd, pairs):
    F101 = fields.Field(101)
    incidences = tuple(P.sym_point(P.ProjPoint(F101, *a), P.ProjPoint(F101, *b))
                       for a, b in pairs)
    four = sd.SearchConstraint(incidences=incidences)
    yield "k=4 F_101 c=4 count", "ms", lambda: sd.search_pencils_ffield(4, 101, four)
    F17 = fields.Field(17)
    two = sd.SearchConstraint(incidences=tuple(
        P.sym_point(P.ProjPoint(F17, *a), P.ProjPoint(F17, *b)) for a, b in pairs[:2]))
    yield "k=4 F_17 c=2 strata", "ms", lambda: sd.search_pencils_ffield(
        4, 17, two, report_strata=True)


def _geometry_cases(P, fields, sd, pools):
    def curves(pool):
        out = []
        for entry in pools[pool]:  # argv holds --f=c0,c1,... and --g=...
            opts = dict(a[2:].split("=", 1) for a in entry["argv"] if a.startswith("--"))
            f, g = (P.BinaryForm.from_coeffs(fields.QQ, opts[n].split(",")) for n in "fg")
            out.append(P.bezoutian_curve(P.Pencil(f, g)))
        return out

    reduced, conic = curves("reduced"), curves("conic")
    diagonal = P.diagonal_conic(fields.QQ)
    yield "is_reduced_curve, 8 cli reduced pencils", "ms", lambda: [
        P.is_reduced_curve(c) for c in reduced]
    yield "intersect_with_conic, 8 cli conic pencils", "ms", lambda: [
        P.intersect_with_conic(c, diagonal) for c in conic]


def _cold_cases(src, cache_dir, pools):
    env = dict(os.environ, PENCILLAB_CACHE=cache_dir, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))

    def run(argv):
        command = [sys.executable, "-m", "pencillab.cli", *argv]
        return lambda: subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True)

    for k, tests, path, flags in ((2, 57, "plain ints", []), (3, 2850, "rank kernel", []),
                                  (2, 57, "--strata", ["--strata"])):
        yield (f"cold dimlab search k={k} F_7, {tests} tests, {path}", "ms",
               run(["dimlab", "search", "--no-cache", "--k", str(k), "--q", "7",
                    "--incidence", "5,0,1", *flags]))
    yield ("cold dimlab search k=3 F_7, no conditions", "ms",
           run(["dimlab", "search", "--no-cache", "--k", "3", "--q", "7"]))
    yield "cold load numerology", "ms", run(["numerology", "--g", "4", "--k", "2", "--e", "2,2"])
    yield "cold load pencil reduced", "ms", run(pools["reduced"][0]["argv"])
    yield "cold load pencil conic-section", "ms", run(pools["conic"][0]["argv"])
    yield "cold load reproduce unique-pencil, cache hit", "ms", run(["reproduce", "unique-pencil"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--only", default="", help="run only the cases whose label contains this")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the pencillab tree to time")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    import pencillab.pencil_geometry as P
    from pencillab import fields, severi_degeneration as sd

    sys.path.insert(0, PERFBENCH)
    from reference import reference_times  # perfbench's reference jobs

    with open(os.path.join(PERFBENCH, "expected.json")) as fh:
        expected = json.load(fh)
    pairs = expected["ladder"]["incidence_pairs"]  # the ladder's, variant 0
    pools = expected["cli"]["pools"]
    with tempfile.TemporaryDirectory() as cache:
        cases = []
        for group in (_eliminate_cases(sd), _systems_cases(P, fields, sd),
                      _micro_cases(P, fields),
                      _ladder_cases(P, fields, sd, pairs), _warm_ladder_cases(P, fields, sd, pairs),
                      _small_search_cases(P, fields, sd, pairs, cache),
                      _sparse_route_cases(P, fields, sd, pairs),
                      _cache_cases(P, fields, sd, pairs, cache),
                      _large_cases(P, fields, sd, pairs), _geometry_cases(P, fields, sd, pools),
                      _cold_cases(args.src, cache, pools)):
            cases += [c for c in group if args.only in c[0]]
        if not cases:
            ap.error(f"no case matches {args.only!r}")
        for label, _, fn in cases:
            if label.endswith(("cache hit", "layout warm")):
                # primes the entry that the timed calls hit, or the chunk layouts
                for call in fn if isinstance(fn, list) else [fn]:
                    call()
        times: dict[str, list[float]] = {label: [] for label, _, _ in cases}
        for _ in range(args.repeats):
            for label, unit, fn in cases:
                for call in fn if isinstance(fn, list) else [fn]:
                    reference_times()
                    start = time.perf_counter()
                    call()
                    elapsed = time.perf_counter() - start
                    times[label].append(
                        elapsed * 1e6 / MICRO_CALLS if unit == "us" else elapsed * 1e3)
    doc = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src": os.path.abspath(args.src),
        "repeats": args.repeats,
        "ms": {label: round(statistics.median(times[label]), 3)
               for label, unit, _ in cases if unit == "ms"},
        "us_per_call": {label: round(statistics.median(times[label]), 3)
                        for label, unit, _ in cases if unit == "us"},
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
