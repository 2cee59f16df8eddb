"""The four workloads, each a closed loop of tasks with one client.

A workload is set up once, then runs rounds: fixed mixes of tasks whose
inputs come from (seed, round index) alone, so an untraced and a traced pass
over the same rounds do the same work.  A task returns how many work units it
finished and the list of checks it failed.

Spans are recorded here, around each call into a pencillab module.  A traced
run measures every per-layer metric: the layers a workload does not exercise
are measured once by a fixed probe at small sizes (see `probe`), so compare a
layer metric on a workload whose `covered` groups include it.

pencillab is imported inside `setup`, never at module level: cli_cold's
untraced runs must not pay for it, and setup_s times the import.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time

from common import ROOT, cli_command, cli_env


def _lib():
    import pencillab
    from pencillab import cli, fields, severi_degeneration

    return pencillab, cli, fields, severi_degeneration


def _dir_usage(path: str) -> tuple[int, int]:
    """(entries, bytes) of the cache entries under path."""
    if not os.path.isdir(path):
        return 0, 0
    names = [n for n in os.listdir(path) if n.endswith(".json")]
    return len(names), sum(os.path.getsize(os.path.join(path, n)) for n in names)


class Workload:
    name = ""
    unit = ""  # what one unit of throughput_per_s is
    covered: frozenset = frozenset()  # metric groups its own tasks exercise

    def __init__(self, seed: int, workdir: str, expected: dict, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.tiny = tiny

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> list:
        """Tasks of one round: (label, callable taking a tracer)."""
        raise NotImplementedError

    def extras(self) -> dict[str, float]:
        """Traced-run measurements that are not spans or counts, made untraced."""
        return {}


# ---------------------------------------------------------------------------
# cli_cold: fresh pencillab processes, one after another


class CliCold(Workload):
    name = "cli_cold"
    unit = "invocations"
    covered = frozenset({"cli", "cache"})

    def setup(self) -> None:
        cli = self.expected["cli"]
        self.fixed = cli["fixed"]
        self.pools = cli["pools"]
        self.cache = os.path.join(self.workdir, "cache")
        hit = next(e for e in self.fixed if e["argv"][:2] == ["reproduce", "unique-pencil"])
        errors = self._invoke(hit, self.cache)  # primes the entry later calls hit
        if errors:
            raise RuntimeError(f"cache priming failed: {errors}")
        self.nocache_runs = 0

    def _invoke(self, entry: dict, cache_dir: str) -> list[str]:
        proc = subprocess.run(
            cli_command(entry["argv"]), cwd=self.workdir,
            env=cli_env(ROOT, self.workdir, cache_dir),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        )
        errors = []
        if proc.returncode != entry["exit"]:
            errors.append(f"{entry['argv']}: exit {proc.returncode} != {entry['exit']}")
        if proc.stdout != entry["stdout"].encode():
            errors.append(f"{entry['argv']}: stdout differs from the frozen output")
        return errors

    def _task(self, entry: dict):
        def run(tr):
            if "--no-cache" not in entry["argv"]:
                return 1, self._invoke(entry, self.cache)
            # a fresh directory shows whether --no-cache writes an entry
            self.nocache_runs += 1
            fresh = os.path.join(self.workdir, f"nocache-{self.nocache_runs}")
            errors = self._invoke(entry, fresh)
            entries, size = _dir_usage(fresh)
            tr.count("severi_degeneration.cache.entries_written", entries)
            tr.count("severi_degeneration.cache.bytes_written", size)
            return 1, errors

        return " ".join(entry["argv"][:2]), run

    def round(self, index: int) -> list:
        rng = self.rng(index)
        if self.tiny:
            entries = self.fixed[:5] + [self.pools["search"][0]]
        else:
            # The reduced pool alternates reduced and double-base-point
            # pencils; one of each checks both verdicts, and the 13th task
            # puts the median task inside one kind instead of between two.
            pools = dict(self.pools)
            reduced = pools.pop("reduced")
            i = 2 * rng.randrange(len(reduced) // 2)
            entries = (self.fixed + reduced[i:i + 2]
                       + [rng.choice(pool) for pool in pools.values()])
        rng.shuffle(entries)
        return [self._task(e) for e in entries]

    def extras(self) -> dict[str, float]:
        return measure_cli(self.fixed, self.workdir, start_repeats=5, import_repeats=3)


# ---------------------------------------------------------------------------
# pair_curves: the criterion-4 laws on seeded random pencils


def _random_pencil(P, field, k: int, rng: random.Random, double_point: bool = False):
    """Random generators; with double_point, both share the square of a random line,
    so the base locus has a double point and the Bezoutian curve is not reduced."""
    shape = k - 2 if double_point else k
    while True:
        f, g = (P.BinaryForm(field, shape, tuple(rng.randint(-9, 9) for _ in range(shape + 1)))
                for _ in range(2))
        if double_point:
            line = P.linear_form(P.ProjPoint(field, 1, rng.randint(-9, 9)))
            square = line.multiply(line)
            f, g = f.multiply(square), g.multiply(square)
        try:
            return P.Pencil(f, g)
        except P.DegeneratePencil:
            continue


class PairCurves(Workload):
    name = "pair_curves"
    unit = "pencils"
    covered = frozenset({"pencil_geometry", "conic"})

    def setup(self) -> None:
        self.P, _, fields, self.sd = _lib()
        self.fields = (fields.QQ, fields.Field(101))

    def round(self, index: int) -> list:
        rng = self.rng(index)
        tasks = []
        # Random pencils almost never have a double base point, so each round
        # adds one per field that does, for the is_reduced_curve law to bite.
        # Both go in one task: eleven equally common task kinds keep the
        # median task inside one kind instead of on the edge between two.
        shapes = [(k, False) for k in range(2, 4 if self.tiny else 7)]
        shapes.append((3 + index % (1 if self.tiny else 3), True))
        for k, double_point in shapes:
            cases = []
            for field in self.fields:
                pen = _random_pencil(self.P, field, k, rng, double_point)
                pts = [self.P.ProjPoint(field, 1, rng.randint(-9, 9)) for _ in range(2)]
                while True:
                    basis = [rng.randint(-3, 3) for _ in range(4)]
                    if field.coerce(basis[0] * basis[3] - basis[1] * basis[2]) != 0:
                        break
                cases.append((pen, pts, basis, field.is_rational and k == 3 and not double_point))
            groups = [cases] if double_point else [[case] for case in cases]
            for group in groups:
                tasks.append((f"k={k}", self._task(group)))
        return tasks

    def _task(self, cases: list):
        def run(tr):
            errors = []
            for case in cases:
                errors += self._check(tr, *case)
            return len(cases), errors

        return run

    def _check(self, tr, pen, pts, basis, conic: bool) -> list[str]:
        P = self.P
        errors = []
        field = pen.field
        tag = "Q" if field.is_rational else "Fq"
        k = pen.f.degree
        curve = tr.call(f"pencil_geometry.bezoutian_curve.{tag}", P.bezoutian_curve, pen)
        if curve.degree != k - 1:
            errors.append(f"curve degree {curve.degree} != {k - 1}")
        other = tr.call("pencil_geometry.change_basis", P.change_basis, pen, *basis)
        other_curve = tr.call(
            f"pencil_geometry.bezoutian_curve.{tag}", P.bezoutian_curve, other
        )
        if other_curve.normalized() != curve.normalized():
            errors.append("Bezoutian curve changed under a change of basis")
        p, q = pts
        if p != q:
            try:
                verdict = tr.call("pencil_geometry.same_fiber", P.same_fiber, pen, p, q)
            except P.BasePointAmbiguity:
                verdict = None
            if verdict is not None:
                if verdict != curve.contains(P.sym_point(p, q)):
                    errors.append("same_fiber disagrees with the curve")
                if tr.call("pencil_geometry.same_fiber", P.same_fiber, other, p, q) != verdict:
                    errors.append("same_fiber changed under a change of basis")
        reduced = tr.call(
            f"pencil_geometry.is_reduced_curve.{tag}", P.is_reduced_curve, curve
        )
        multiple = tr.call(
            "pencil_geometry.has_multiple_base_points", P.has_multiple_base_points, pen
        )
        if reduced == multiple:
            errors.append("is_reduced_curve disagrees with has_multiple_base_points")
        if field.is_rational and P.base_locus(pen).degree == 0:
            w = tr.call("pencil_geometry.wronskian", P.wronskian, pen)
            if w.degree != 2 * k - 2:
                errors.append(f"Wronskian degree {w.degree} != {2 * k - 2}")
        if conic:
            diag = P.diagonal_conic(field)
            name = "severi_degeneration.intersect_with_conic"
            first = tr.call(name, self.sd.intersect_with_conic, curve, diag)
            second = tr.call(name, self.sd.intersect_with_conic, other_curve, diag)
            if first.expected_degree != 2 * curve.degree:
                errors.append("conic section expects the wrong degree")
            if (first.degree, first.transversal) != (second.degree, second.transversal):
                errors.append("conic section changed under a change of basis")
        return errors


# ---------------------------------------------------------------------------
# ladder: the k = 3 dimension ladder through the search kernel


# The ladder's inputs depend on the seed only through seed % LADDER_VARIANTS,
# so that freeze.py can freeze the count of every search the workload makes,
# whatever the seed.  Variant 0 uses the acceptance test's INCIDENCE_PAIRS.
LADDER_VARIANTS = 32


def ladder_searches(P, fields, sd, variant: int, incidence_pairs, tiny: bool = False):
    """The searches of one ladder round: (label, span tag, q, constraint, jobs, strata).

    The labels are the keys of the frozen counts in expected.json.
    """
    rng = random.Random(f"ladder:{variant}:-1")
    if variant == 0:
        pairs = [tuple(map(tuple, pair)) for pair in incidence_pairs]
    else:
        affine = [(1, t) for t in range(-9, 10)] + [(0, 1)]
        pairs = [tuple(rng.sample(affine, 2)) for _ in range(4)]

    def incidences(q: int, c: int) -> tuple:
        F = fields.Field(q)
        return tuple(P.sym_point(P.ProjPoint(F, *a), P.ProjPoint(F, *b)) for a, b in pairs[:c])

    searches = []
    ladders = [(31, range(5), 1, "q31")]
    if not tiny:
        ladders.append((101, range(1, 5), 2, "q101"))
    for q, rungs, jobs, tag in ladders:
        for c in rungs:
            searches.append((f"F_{q} c={c}", tag, q,
                             sd.SearchConstraint(incidences=incidences(q, c)), jobs, False))
    F31 = fields.Field(31)
    ram_pts = [P.ProjPoint(F31, 1, t) for t in rng.sample(range(31), 3)]
    # orders 2, 3 and a pair of 2s compile to 1, 3 and 2 matrices
    rams = [((ram_pts[0], 2),), ((ram_pts[1], 3),), ((ram_pts[0], 2), (ram_pts[2], 2))]
    for n, ram in enumerate(rams):
        searches.append((f"F_31 ram {n}", "ram", 31, sd.SearchConstraint(ramifications=ram),
                         1, False))
    searches.append(("F_13 strata", "strata", 13,
                     sd.SearchConstraint(incidences=incidences(13, 1)), 1, True))
    return searches


class Ladder(Workload):
    name = "ladder"
    unit = "candidate pencils"
    covered = frozenset({"search", "cache"})
    K = 3

    def setup(self) -> None:
        self.P, _, self.fields, self.sd = _lib()
        frozen = self.expected["ladder"]
        variant = self.seed % LADDER_VARIANTS
        self.searches = ladder_searches(self.P, self.fields, self.sd, variant,
                                        frozen["incidence_pairs"], self.tiny)
        self.counts = frozen["counts"][variant]
        self.strata = frozen["strata"][variant]
        self.rounds_run = 0

    def _search(self, label: str, span: str, q: int, constraint, jobs: int,
                cache_dir: str, previous: dict, strata: bool):
        sd = self.sd

        def run(tr):
            entries, size = _dir_usage(cache_dir)
            res = tr.call(span, sd.search_pencils_ffield, self.K, q, constraint,
                          jobs=jobs, cache_dir=cache_dir, report_strata=strata)
            entries_after, size_after = _dir_usage(cache_dir)
            tr.count("severi_degeneration.cache.entries_written", entries_after - entries)
            tr.count("severi_degeneration.cache.bytes_written", size_after - size)
            candidates = sd.grassmannian_pencil_count(self.K, q)
            tr.count("severi_degeneration.search.candidates", candidates)
            tr.count("severi_degeneration.search.matches", res.count)
            errors = []
            if res.count != self.counts[label]:
                errors.append(f"{label}: count {res.count} != {self.counts[label]}")
            if label.endswith(" c=0") and res.count != candidates:
                # the empty constraint is counted arithmetically, not searched
                errors.append(f"{label}: count {res.count} != {candidates} pencils")
            if constraint.incidences:
                if res.count > previous.get(q, candidates):
                    errors.append(f"{label}: count rose with c")
                previous[q] = res.count
            errors += self._check_samples(res, constraint)
            if strata:
                if sum(res.strata.values()) != res.count:
                    errors.append(f"{label}: strata do not add up to the count")
                if res.strata != self.strata:
                    errors.append(f"{label}: strata differ from the frozen ones")
            return candidates, errors

        return run

    def _check_samples(self, res, constraint) -> list[str]:
        P = self.P
        for pen in res.samples:
            curve = P.bezoutian_curve(pen)
            if not all(curve.contains(sp) for sp in constraint.incidences):
                return ["a sample misses an incidence point"]
            if not all(P.has_ramification_at(pen, pt, e) for pt, e in constraint.ramifications):
                return ["a sample lacks a required ramification"]
        return []

    def round(self, index: int) -> list:
        cache_dir = os.path.join(self.workdir, f"round-{index}-{self.rounds_run}")
        self.rounds_run += 1
        previous: dict[int, int] = {}
        return [
            (label, self._search(label, f"severi_degeneration.search.{tag}", q, constraint,
                                 jobs, cache_dir, previous, strata))
            for label, tag, q, constraint, jobs, strata in self.searches
        ]

    def extras(self) -> dict[str, float]:
        return search_extras(self.P, self.fields, self.sd, 31 if self.tiny else 101,
                             os.path.join(self.workdir, "primed"))


# ---------------------------------------------------------------------------
# combinatorics: pure-Python integer walkers

# Balanced profiles; each round visits every one in a seeded order of its
# points, which changes the input but barely the cost.
PROFILES = (
    (4, (2, 2, 2, 2, 3)), (4, (2, 2, 3, 3)), (5, (3, 3, 3, 3)), (5, (2, 3, 3, 4)),
    (5, (3, 3, 5)), (5, (2, 2, 3, 3, 3)), (6, (2, 5, 6)), (6, (6, 6)),
)
ORACLE_PROFILE = (4, (2,) * 6)


class Combinatorics(Workload):
    name = "combinatorics"
    unit = "tasks"
    covered = frozenset({"monodromy", "numerology", "alpha"})

    def setup(self) -> None:
        self.P, _, _, self.sd = _lib()
        self.delta_table = [tuple(row) for row in self.expected["delta_zero"]]

    def round(self, index: int) -> list:
        rng = self.rng(index)
        tasks = []
        profiles = PROFILES[:2] if self.tiny else PROFILES
        for k, e in profiles:
            e = tuple(rng.sample(e, len(e)))
            tasks.append((f"monodromy k={k}", self._monodromy(k, e)))
        oracle = (3, (2,) * 4) if self.tiny else ORACLE_PROFILE
        tasks.append(("exhaustive walk", self._oracle(*oracle)))
        tasks.append(("delta_zero", self._delta_zero(*rng.choice(self.delta_table))))
        for _ in range(20 if self.tiny else 150):
            p = rng.randint(2, 28)
            triple = (p, rng.randrange(p), rng.randint(2, 6))
            tasks.append(("alpha", self._alpha(triple, with_enumerate=rng.random() < 0.25)))
        for _ in range(10 if self.tiny else 50):
            tasks.append(("profile_report", self._profile(rng.randint(1, 100), rng.randint(2, 100))))
        rng.shuffle(tasks)
        return tasks

    def _monodromy(self, k: int, e: tuple):
        P = self.P

        def run(tr):
            count = tr.call("monodromy.count_tuples", P.count_tuples, k, e)
            found = tr.call("monodromy.enumerate_tuples", P.enumerate_tuples, k, e)
            built = tr.call("monodromy.construct_tuple", P.construct_tuple, k, e)
            tr.count("monodromy.tuples_returned", len(found))
            errors = []
            if count != len(found):
                errors.append(f"count_tuples {count} != {len(found)} enumerated for {e}")
            if built not in found:
                errors.append(f"constructed tuple for {e} is not enumerated")
            return 1, errors

        return run

    def _oracle(self, k: int, e: tuple):
        P = self.P

        def run(tr):
            slow = tr.call("monodromy.enumerate_tuples.exhaustive",
                           P.enumerate_tuples, k, e, exhaustive=True)
            fast = tr.call("monodromy.enumerate_tuples", P.enumerate_tuples, k, e)
            tr.count("monodromy.tuples_returned", len(slow) + len(fast))
            return 1, [] if slow == fast else ["exhaustive and pruned walks differ"]

        return run

    def _delta_zero(self, p: int, k: int, frozen: int):
        P = self.P

        def run(tr):
            got = tr.call("numerology.delta_zero", P.delta_zero, p, k)
            return 1, [] if got == frozen else [f"delta_zero({p}, {k}) = {got} != {frozen}"]

        return run

    def _alpha(self, triple: tuple, with_enumerate: bool):
        P, sd = self.P, self.sd

        def run(tr):
            exists = tr.call("severi_degeneration.exists_alpha", sd.exists_alpha, *triple)
            errors = []
            if exists != tr.call("numerology.severi_nonempty", P.severi_nonempty, *triple):
                errors.append(f"exists_alpha != severi_nonempty at {triple}")
            if with_enumerate:
                found = tr.call("severi_degeneration.enumerate_alpha", sd.enumerate_alpha, *triple)
                if bool(found) != exists:
                    errors.append(f"enumerate_alpha disagrees with exists_alpha at {triple}")
            return 1, errors

        return run

    def _profile(self, g: int, k: int):
        P = self.P

        def run(tr):
            report = tr.call("numerology.profile_report", P.profile_report,
                             P.RamificationProfile(g, k, (k, k)))
            return 1, [] if report["rho_tilde"] == -g else [f"rho_tilde != -{g} at k={k}"]

        return run


WORKLOADS = {w.name: w for w in (CliCold, PairCurves, Ladder, Combinatorics)}


# ---------------------------------------------------------------------------
# measurements outside the workloads' own rounds


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _child_time(code: str, repeats: int) -> float:
    env = cli_env(ROOT, ROOT)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_cli(entries: list, workdir: str, start_repeats: int,
                import_repeats: int) -> dict[str, float]:
    """The parts of a cold call: interpreter start, package import, warm main.

    cli.main_s is the median over `entries` of a second, warm in-process call.
    """
    _, cli, _, _ = _lib()
    start_s = _child_time("pass", start_repeats)
    import_s = _child_time("import pencillab", import_repeats) - start_s
    saved = os.environ.get("PENCILLAB_CACHE")
    os.environ["PENCILLAB_CACHE"] = os.path.join(workdir, "cli-main-cache")
    try:
        times = []
        for entry in entries:
            for _ in range(2):  # the second call is the warm one
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(list(entry["argv"]))
                elapsed = time.perf_counter() - start
            times.append(elapsed)
    finally:
        if saved is None:
            del os.environ["PENCILLAB_CACHE"]
        else:
            os.environ["PENCILLAB_CACHE"] = saved
    return {
        "cli.python_start_s": start_s,
        "cli.import_s": import_s,
        "cli.main_s": statistics.median(times),
    }


def search_extras(P, fields, sd, q: int, cache_dir: str) -> dict[str, float]:
    """parallel_efficiency and cache.hit_s on the k = 3, c = 1 rung over F_q.

    parallel_efficiency is the jobs=1 time over twice the jobs=2 time;
    cache.hit_s the median of five in-process hits on an entry primed here.
    """
    F = fields.Field(q)
    constraint = sd.SearchConstraint(
        incidences=(P.sym_point(P.ProjPoint(F, 1, 0), P.ProjPoint(F, 1, 1)),))
    timings = {}
    for jobs in (1, 2):
        start = time.perf_counter()
        sd.search_pencils_ffield(3, q, constraint, jobs=jobs)
        timings[jobs] = time.perf_counter() - start
    sd.search_pencils_ffield(3, q, constraint, cache_dir=cache_dir)
    return {
        "severi_degeneration.search.parallel_efficiency": timings[1] / (2 * timings[2]),
        "severi_degeneration.cache.hit_s": _median_time(
            lambda: sd.search_pencils_ffield(3, q, constraint, cache_dir=cache_dir), 5),
    }


def probe(groups: set[str], tr, expected: dict, workdir: str) -> dict[str, float]:
    """Exercise, once at fixed small sizes, the metric groups the workload skipped.

    Every per-layer busy time must be a measured, nonzero time on every
    workload, so the layers a workload does not run are timed here; these
    figures are the probe's, not the workload's.
    """
    P, _, fields, sd = _lib()
    Q, F101, F31 = fields.QQ, fields.Field(101), fields.Field(31)
    rng = random.Random("probe")
    extras: dict[str, float] = {}
    tr.task = "probe"
    if "cli" in groups:
        extras.update(measure_cli(expected["cli"]["fixed"][:1], workdir,
                                  start_repeats=1, import_repeats=1))
    if "pencil_geometry" in groups or "conic" in groups:
        for field, tag in ((Q, "Q"), (F101, "Fq")):
            pen = _random_pencil(P, field, 3, rng)
            pts = [P.ProjPoint(field, 1, t) for t in (2, 5)]
            curve = tr.call(f"pencil_geometry.bezoutian_curve.{tag}", P.bezoutian_curve, pen)
            if "pencil_geometry" in groups:
                tr.call(f"pencil_geometry.is_reduced_curve.{tag}", P.is_reduced_curve, curve)
                tr.call("pencil_geometry.same_fiber", P.same_fiber, pen, *pts, strict=False)
                tr.call("pencil_geometry.change_basis", P.change_basis, pen, 2, 3, 1, 2)
                tr.call("pencil_geometry.has_multiple_base_points",
                        P.has_multiple_base_points, pen)
                tr.call("pencil_geometry.wronskian", P.wronskian, pen)
            if "conic" in groups and field is Q:
                tr.call("severi_degeneration.intersect_with_conic",
                        sd.intersect_with_conic, curve, P.diagonal_conic(Q))
    if "search" in groups:
        pts = [P.ProjPoint(F31, 1, t) for t in (1, 4, 9)]
        inc = sd.SearchConstraint(incidences=(P.sym_point(pts[0], pts[1]),))
        pts101 = [P.ProjPoint(F101, 1, t) for t in (1, 4)]
        F13 = fields.Field(13)
        with traced_compile(tr):
            res = tr.call("severi_degeneration.search.q31", sd.search_pencils_ffield,
                          3, 31, inc)
            tr.call("severi_degeneration.search.q101", sd.search_pencils_ffield, 2, 101,
                    sd.SearchConstraint(incidences=(P.sym_point(*pts101),)))
            tr.call("severi_degeneration.search.ram", sd.search_pencils_ffield, 3, 31,
                    sd.SearchConstraint(ramifications=((pts[2], 3),)))
            tr.call("severi_degeneration.search.strata", sd.search_pencils_ffield, 3, 13,
                    sd.SearchConstraint(incidences=(
                        P.sym_point(P.ProjPoint(F13, 1, 1), P.ProjPoint(F13, 1, 4)),
                        P.sym_point(P.ProjPoint(F13, 1, 2), P.ProjPoint(F13, 0, 1)))),
                    report_strata=True)
        tr.count("severi_degeneration.search.candidates", sd.grassmannian_pencil_count(3, 31))
        tr.count("severi_degeneration.search.matches", res.count)
        extras.update(search_extras(P, fields, sd, 31, os.path.join(workdir, "probe-cache")))
    if "alpha" in groups:
        for triple in ((12, 3, 3), (20, 6, 4)):
            tr.call("severi_degeneration.exists_alpha", sd.exists_alpha, *triple)
            tr.call("severi_degeneration.enumerate_alpha", sd.enumerate_alpha, *triple)
    if "monodromy" in groups:
        e = (2, 2, 3, 3)
        tr.count("monodromy.tuples_returned", tr.call(
            "monodromy.count_tuples", P.count_tuples, 4, e))
        tr.call("monodromy.enumerate_tuples", P.enumerate_tuples, 4, e)
        tr.call("monodromy.construct_tuple", P.construct_tuple, 4, e)
        tr.call("monodromy.enumerate_tuples.exhaustive", P.enumerate_tuples, 3, (2,) * 4,
                exhaustive=True)
    if "numerology" in groups:
        tr.call("numerology.delta_zero", P.delta_zero, 2000, 3)
        for k in (2, 3, 4):
            tr.call("numerology.severi_nonempty", P.severi_nonempty, 30, 5, k)
            tr.call("numerology.profile_report", P.profile_report,
                    P.RamificationProfile(4, k, (k, k)))
    return extras


@contextlib.contextmanager
def traced_compile(tr):
    """Route the search's internal compile_constraint call through a span.

    search_pencils_ffield looks compile_constraint up as a module global at
    each call, so the span nests inside the search span and the search's self
    time excludes compilation.
    """
    _, _, _, sd = _lib()
    original = sd.compile_constraint

    def wrapped(*args, **kwargs):
        return tr.call("severi_degeneration.compile_constraint", original, *args, **kwargs)

    sd.compile_constraint = wrapped
    try:
        yield
    finally:
        sd.compile_constraint = original

