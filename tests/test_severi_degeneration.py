"""Alpha-tuple combinatorics, limit-curve descent, finite-field pencil searches."""

import concurrent.futures
import itertools
import json
import os
import random
import re
import time
from fractions import Fraction
from operator import mul, sub

import numpy as np
import pytest

from pencillab import (
    AlphaTuple,
    ChainMismatch,
    ChainSpec,
    LimitCurveModel,
    Pencil,
    PointCollision,
    ResourceLimit,
    SearchConstraint,
    SearchResult,
    ZeroCount,
    bezoutian_curve,
    build_limit_curve,
    change_basis,
    descends,
    diagonal_conic,
    dimension_estimate,
    enumerate_alpha,
    exists_alpha,
    grassmannian_pencil_count,
    intersect_with_conic,
    linear_form,
    search_pencils_ffield,
    severi_nonempty,
    sym_point,
    total_ramification_pencil,
)
from pencillab import numerology, severi_degeneration
from pencillab.pencil_geometry import (
    BinaryForm,
    PlaneCurve,
    _move_to_origin,
    base_locus,
    has_ramification_at,
    squarefree_form,
)
from pencillab.fields import QQ, Field

from conftest import form, point, projective_points, random_pencil


def oracle_alpha_walk(p, delta, k):
    """Every (a_1..a_p) with sum j*a_j = p, sum (j-1)*a_j = delta, a_j <= 2(k-1), unpruned.

    a_p is chosen first, down to a_2, over every value the remaining p and
    delta allow; a_1 is then forced to the remaining p.
    """
    cap = 2 * (k - 1)

    def walk(j, rem_p, rem_delta, acc):
        if j == 1:
            if rem_delta == 0 and rem_p <= cap:
                yield (rem_p,) + acc
            return
        top = min(cap, rem_p // j, rem_delta // (j - 1))
        for a in range(top + 1):
            yield from walk(j - 1, rem_p - j * a, rem_delta - (j - 1) * a, (a,) + acc)

    yield from walk(p, p, delta, ())


def alphas_as_dict(tup):
    return {j + 1: a for j, a in enumerate(tup.alphas) if a}


class TestAlphaTuples:
    def test_enumerate_5_2_2(self):
        found = [alphas_as_dict(t) for t in enumerate_alpha(5, 2, 2)]
        assert found == [{1: 1, 2: 2}, {1: 2, 3: 1}]

    def test_enumerate_5_1_2_empty(self):
        # the only candidate (alpha_1=3, alpha_2=1) breaks the 2(k-1) cap
        assert enumerate_alpha(5, 1, 2) == []

    def test_delta_zero_forces_all_ones(self):
        for k in (2, 3, 4):
            for p in range(2, 12):
                tuples = enumerate_alpha(p, 0, k)
                if p <= 2 * (k - 1):
                    assert [alphas_as_dict(t) for t in tuples] == [{1: p}]
                else:
                    assert tuples == []

    def test_invariants_hold_on_sweep(self):
        for p in range(2, 12):
            for delta in range(0, p):
                for k in (2, 3):
                    for t in enumerate_alpha(p, delta, k):
                        assert sum((j + 1) * a for j, a in enumerate(t.alphas)) == p
                        assert t.delta == delta
                        assert t.genus == p - delta
                        assert all(a <= 2 * (k - 1) for a in t.alphas)

    def test_lexicographic_order_and_determinism(self):
        a = enumerate_alpha(9, 3, 3)
        assert a == enumerate_alpha(9, 3, 3)
        keys = [t.alphas for t in a]
        assert keys == sorted(keys)

    def test_alpha_tuple_validates_weight(self):
        with pytest.raises(ValueError):
            AlphaTuple(4, (1, 0, 0, 0))  # weighted sum 1 != 4

    def test_exists_examples(self):
        assert exists_alpha(5, 2, 2)
        assert exists_alpha(3, 1, 2)
        assert not exists_alpha(4, 0, 2)

    def test_pruned_walk_and_closed_form_match_the_oracle_walk(self):
        for p in range(1, 26):
            for delta in range(p):
                for k in range(2, 6):
                    want = sorted(oracle_alpha_walk(p, delta, k))
                    assert [t.alphas for t in enumerate_alpha(p, delta, k)] == want
                    assert exists_alpha(p, delta, k) == bool(want), (p, delta, k)
                    assert numerology._count_alpha(p, delta, k) == len(want), (p, delta, k)

    def test_size_guard_counts_before_listing(self):
        assert len(enumerate_alpha(100, 95, 2)) == 37425
        # dynamic-programming counts far past anything listable
        assert numerology._count_alpha(200, 192, 2) == 80364812
        assert numerology._count_alpha(300, 290, 2) == 21408078129
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="21408078129 alpha-tuples"):
            enumerate_alpha(300, 290, 2)
        # one tuple, but a count of about p steps
        with pytest.raises(ResourceLimit, match="steps"):
            enumerate_alpha(numerology.MAX_ALPHA_STEPS + 1, numerology.MAX_ALPHA_STEPS, 2)
        assert time.perf_counter() - start < 1
        # an empty family is answered before either guard
        assert enumerate_alpha(3000, 1500, 2) == []
        # g = 108 chains, two of each length 1..54, sum to p = 2970: one tuple,
        # counted in 618,408 steps and walked straight down from length 54
        start = time.perf_counter()
        (only,) = enumerate_alpha(2970, 2862, 2)
        assert only.alphas == (2,) * 54 + (0,) * (2970 - 54)
        assert time.perf_counter() - start < 1

    def test_exists_matches_enumeration(self):
        for p in range(2, 14):
            for delta in range(0, p):
                for k in (2, 3, 4):
                    assert exists_alpha(p, delta, k) == bool(enumerate_alpha(p, delta, k))

    def test_exists_matches_closed_form(self):
        # small slice of the cross-module law; the full sweep is in acceptance
        for p in range(2, 12):
            for delta in range(0, p):
                for k in (2, 3):
                    assert exists_alpha(p, delta, k) == severi_nonempty(p, delta, k)


class TestLimitCurves:
    def test_two_short_chains(self):
        alpha = AlphaTuple(2, (2, 0))
        chains = [
            ChainSpec(1, (point(QQ, 1, 1), point(QQ, 1, -1))),
            ChainSpec(1, (point(QQ, 1, 2), point(QQ, 1, 3))),
        ]
        model = build_limit_curve(alpha, chains, [])
        assert len(model.node_pairs) == 2
        assert alpha.delta == 0

    def test_mixed_chain_lengths(self):
        alpha = AlphaTuple(3, (1, 1, 0))
        chains = [
            ChainSpec(2, (point(QQ, 1, 0), point(QQ, 1, 1))),
            ChainSpec(1, (point(QQ, 1, 2), point(QQ, 1, 3))),
        ]
        model = build_limit_curve(alpha, chains, [])
        assert len(model.node_pairs) == 2
        assert alpha.delta == 1
        assert alpha.genus == 2

    def test_chain_mismatch(self):
        alpha = AlphaTuple(2, (2, 0))
        chains = [ChainSpec(2, (point(QQ, 1, 0), point(QQ, 1, 1)))]
        with pytest.raises(ChainMismatch):
            build_limit_curve(alpha, chains, [])

    def test_point_collision(self):
        with pytest.raises(PointCollision):
            ChainSpec(1, (point(QQ, 1, 1), point(QQ, 2, 2)))
        alpha = AlphaTuple(2, (2, 0))
        chains = [
            ChainSpec(1, (point(QQ, 1, 1), point(QQ, 1, 2))),
            ChainSpec(1, (point(QQ, 1, 2), point(QQ, 1, 3))),
        ]
        with pytest.raises(PointCollision):
            build_limit_curve(alpha, chains, [])


class TestDescent:
    def test_symmetric_pair_descends(self):
        model = LimitCurveModel(((point(QQ, 1, 1), point(QQ, 1, -1)),), (), ())
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 0, 1]))
        assert descends(model, pen).descends

    def test_generic_pair_does_not(self):
        model = LimitCurveModel(((point(QQ, 1, 1), point(QQ, 1, 2)),), (), ())
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 0, 1]))
        rep = descends(model, pen)
        assert not rep.descends
        assert rep.pair_in_fiber == (False,)

    def test_pairs_and_marked_ramification(self):
        model = LimitCurveModel(
            ((point(QQ, 1, 2), point(QQ, 1, Fraction(2, 3))),),
            (point(QQ, 1, 0), point(QQ, 1, 1)),
            (2, 2),
        )
        pen = Pencil(form(QQ, [0, 0, 1]), form(QQ, [1, -2, 1]))
        rep = descends(model, pen)
        assert rep.descends
        assert rep.pair_in_fiber == (True,)
        assert rep.ramification_ok == (True, True)

    def test_second_pencil_neutrality(self):
        model = LimitCurveModel(((point(QQ, 1, 1), point(QQ, 1, -1)),), (), ())
        pen = Pencil(form(QQ, [1, 0, 0]), form(QQ, [0, 0, 1]))
        crossing = Pencil(form(QQ, [1, 1, 0]), form(QQ, [0, 0, 1]))
        rep = descends(model, pen, second=crossing)
        assert rep.non_neutral == (not crossing.f.evaluate(point(QQ, 1, 1))
                                   * crossing.g.evaluate(point(QQ, 1, -1))
                                   == crossing.f.evaluate(point(QQ, 1, -1))
                                   * crossing.g.evaluate(point(QQ, 1, 1)),)

    def test_total_ramification_descent_identity(self):
        # descent through a node pair must match the product identity
        # la(y)^k lb(z)^k = la(z)^k lb(y)^k for the two-point pencil
        F = Field(7)
        rng = random.Random(3)
        pts = projective_points(F)
        for _ in range(30):
            a, b, y, z = rng.sample(pts, 4)
            k = rng.choice([2, 3])
            pen = total_ramification_pencil(a, b, k)
            la, lb = linear_form(a), linear_form(b)
            lhs = F.mul(F.pow(la.evaluate(y), k), F.pow(lb.evaluate(z), k))
            rhs = F.mul(F.pow(la.evaluate(z), k), F.pow(lb.evaluate(y), k))
            model = LimitCurveModel(((y, z),), (), ())
            assert descends(model, pen).pair_in_fiber[0] == (lhs == rhs)
            curve = bezoutian_curve(pen)
            assert curve.contains(sym_point(y, z)) == (lhs == rhs)


class TestGrassmannianCount:
    def test_small_values(self):
        assert grassmannian_pencil_count(2, 5) == 31
        assert grassmannian_pencil_count(3, 5) == 806
        assert grassmannian_pencil_count(3, 7) == 2850

    def test_matches_closed_form(self):
        for k in (2, 3, 4):
            for q in (3, 5, 7, 11):
                expected = ((q ** (k + 1) - 1) * (q ** (k + 1) - q)) // (
                    (q * q - 1) * (q * q - q)
                )
                assert grassmannian_pencil_count(k, q) == expected


class TestSearch:
    def test_empty_constraint_equals_closed_form(self):
        for k, q in [(2, 5), (2, 7), (3, 5), (3, 7), (3, 11), (4, 5), (4, 11)]:
            res = search_pencils_ffield(k, q, SearchConstraint())
            assert res.count == grassmannian_pencil_count(k, q)

    def test_unique_total_ramification_pencil(self):
        F = Field(5)
        constraint = SearchConstraint(
            ramifications=((point(F, 1, 0), 2), (point(F, 0, 1), 2))
        )
        res = search_pencils_ffield(2, 5, constraint)
        assert res.count == 1
        found = res.samples[0]
        assert found.f.coeffs == (1, 0, 0)
        assert found.g.coeffs == (0, 0, 1)

    def test_one_incidence_regression(self):
        F = Field(5)
        xi = sym_point(point(F, 1, 0), point(F, 1, 1))
        res = search_pencils_ffield(2, 5, SearchConstraint(incidences=(xi,)))
        assert res.count == 6  # lines through a point of the dual plane

    def test_constraints_never_increase_count(self):
        F = Field(7)
        xi1 = sym_point(point(F, 1, 0), point(F, 1, 1))
        xi2 = sym_point(point(F, 1, 2), point(F, 1, 3))
        counts = [
            search_pencils_ffield(2, 7, c).count
            for c in (
                SearchConstraint(),
                SearchConstraint(incidences=(xi1,)),
                SearchConstraint(incidences=(xi1, xi2)),
            )
        ]
        assert counts[0] >= counts[1] >= counts[2]

    def test_samples_satisfy_constraint(self):
        F = Field(7)
        xi = sym_point(point(F, 1, 2), point(F, 1, 3))
        res = search_pencils_ffield(3, 7, SearchConstraint(incidences=(xi,)))
        assert 0 < len(res.samples) <= 20
        for pen in res.samples:
            assert bezoutian_curve(pen).contains(xi)

    def test_strata_partition_the_count(self):
        res = search_pencils_ffield(2, 5, SearchConstraint(), report_strata=True)
        assert res.strata == {"base_point_free": 25, "simple_base_divisor": 6}
        assert sum(res.strata.values()) == res.count

    def test_parallel_matches_serial(self):
        F = Field(7)
        xi = sym_point(point(F, 1, 1), point(F, 1, 5))
        constraint = SearchConstraint(incidences=(xi,))
        serial = search_pencils_ffield(2, 7, constraint)
        parallel = search_pencils_ffield(2, 7, constraint, jobs=3)
        assert serial.count == parallel.count
        assert serial.samples == parallel.samples

    def test_budget_guard(self):
        with pytest.raises(ResourceLimit):
            search_pencils_ffield(3, 11,
                                  SearchConstraint(incidences=(
                                      sym_point(point(Field(11), 1, 1),
                                                point(Field(11), 1, 2)),)),
                                  budget=10)

    def test_field_guards(self):
        with pytest.raises(ValueError):
            search_pencils_ffield(3, 3, SearchConstraint())  # needs q > k
        with pytest.raises(ValueError):
            search_pencils_ffield(2, 4, SearchConstraint())  # composite

    def test_cache_round_trip(self, tmp_path):
        F = Field(5)
        xi = sym_point(point(F, 1, 0), point(F, 1, 2))
        constraint = SearchConstraint(incidences=(xi,))
        first = search_pencils_ffield(2, 5, constraint, cache_dir=str(tmp_path))
        cached_files = list(tmp_path.glob("search-*.json"))
        assert len(cached_files) == 1
        second = search_pencils_ffield(2, 5, constraint, cache_dir=str(tmp_path))
        assert first.count == second.count
        assert first.samples == second.samples

    def test_index_codec_is_lexicographic(self):
        sd = severi_degeneration
        for q, width in [(3, 0), (5, 1), (7, 3)]:
            for dtype in (np.int16, np.int64):
                out = [np.empty(q**width, dtype=dtype) for _ in range(width)]
                sd._digits(np.arange(q**width), q, out)
                rows = np.array([d.tolist() for d in out]).T.reshape(q**width, width)
                assert rows.tolist() == [list(t) for t in itertools.product(range(q), repeat=width)]
                last = [np.empty(1, dtype=dtype) for _ in range(width)]
                sd._digits([q**width - 1], q, last)
                assert [int(d[0]) for d in last] == [q - 1] * width
        # a cell's echelon rows keep that order, so sample keys sort as the matches do
        q, k = 5, 4
        for cell in sd._cells(k):
            for pivot, cols in zip(cell, sd._free_columns(k, *cell)):
                coords = coordinates(q, len(cols))
                rows = echelon_rows(k, pivot, cols, coords)
                assert rows[:, pivot].tolist() == [1] * len(rows)
                assert rows[:, cols].tolist() == coords.tolist()
                assert sorted(map(tuple, rows.tolist())) == list(map(tuple, rows.tolist()))

    def test_doctored_cache_entry_is_recomputed(self, tmp_path):
        F = Field(5)
        xi = sym_point(point(F, 1, 0), point(F, 1, 2))
        constraint = SearchConstraint(incidences=(xi,))
        truth = search_pencils_ffield(2, 5, constraint, cache_dir=str(tmp_path))
        (path,) = tmp_path.glob("search-*.json")
        honest = json.loads(path.read_text())
        for key, value in [("k", 3), ("q", 7), ("constraint", SearchConstraint().to_json_dict())]:
            doc = dict(honest, count=truth.count + 1, samples=[])
            doc[key] = value
            path.write_text(json.dumps(doc))
            again = search_pencils_ffield(2, 5, constraint, cache_dir=str(tmp_path))
            assert again.count == truth.count, key
            assert again.samples == truth.samples, key
        # the question matches, but what it stores does not decode
        sample = honest["samples"][0]
        malformed = [
            ("not an object", [honest]),
            ("sample without coeffs", dict(honest, samples=[dict(sample, f={"degree": 2})])),
            ("count not a number", dict(honest, count="lots")),
            ("count a bool", dict(honest, count=True)),
            ("unknown stratum", dict(honest, strata={"cuspidal": 1})),
        ]
        for name, doc in malformed:
            path.write_text(json.dumps(doc))
            assert search_pencils_ffield(2, 5, constraint, cache_dir=str(tmp_path)) == truth, name
            assert json.loads(path.read_text()) == honest, name

    def test_cache_lookup_creates_no_directory(self, tmp_path):
        cache = tmp_path / "cache"
        F = Field(5)
        constraint = SearchConstraint(incidences=(sym_point(point(F, 1, 0), point(F, 1, 2)),))
        spec = constraint.to_json_dict()
        spec_text = json.dumps(spec, separators=(",", ":"))
        path = severi_degeneration._cache_path(str(cache), 2, 5, spec_text)
        mats = severi_degeneration.compile_constraint(2, 5, constraint)
        assert severi_degeneration._load_cached(path, 2, 5, spec, mats, False) is None
        assert not cache.exists()
        search_pencils_ffield(2, 5, constraint, cache_dir=str(cache))
        assert [p.name for p in cache.iterdir()] == [os.path.basename(path)]

    def test_a_writer_between_another_writers_write_and_replace(self, tmp_path, monkeypatch):
        # two runs storing one entry at once: the second writes and replaces
        # while the first has written its file and not yet replaced the entry
        sd = severi_degeneration
        F = Field(5)
        constraint = SearchConstraint(incidences=(sym_point(point(F, 1, 0), point(F, 1, 2)),))
        result = search_pencils_ffield(2, 5, constraint)
        spec = constraint.to_json_dict()
        spec_text = json.dumps(spec, separators=(",", ":"))
        path = sd._cache_path(str(tmp_path), 2, 5, spec_text)
        replace = os.replace

        def interleaved(src, dst):
            monkeypatch.setattr(os, "replace", replace)
            sd._store_cached(path, 2, 5, spec_text, result)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        sd._store_cached(path, 2, 5, spec_text, result)
        assert os.replace is replace  # the second writer ran
        assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]
        mats = sd.compile_constraint(2, 5, constraint)
        assert sd._load_cached(path, 2, 5, spec, mats, False) == result

    def test_points_over_another_field_are_refused_in_both_cache_states(self, tmp_path):
        # the entry stores coordinates, not their field, so the same residues
        # over F_7 prime the entry that the F_5 question would look up
        def constraint(q):
            F = Field(q)
            return SearchConstraint(incidences=(sym_point(point(F, 1, 0), point(F, 1, 2)),))

        assert constraint(5).to_json_dict() == constraint(7).to_json_dict()
        for cache_dir in (None, str(tmp_path)):
            with pytest.raises(ValueError, match="field does not match q"):
                search_pencils_ffield(2, 7, constraint(5), cache_dir=cache_dir)
        assert not list(tmp_path.iterdir())  # the refusal wrote nothing
        assert search_pencils_ffield(2, 7, constraint(7), cache_dir=str(tmp_path)).count == 8
        (entry,) = tmp_path.iterdir()
        honest = entry.read_bytes()
        for strata in (False, True):
            with pytest.raises(ValueError, match="field does not match q"):
                search_pencils_ffield(2, 7, constraint(5), cache_dir=str(tmp_path),
                                      report_strata=strata)
        assert list(tmp_path.iterdir()) == [entry] and entry.read_bytes() == honest

    def test_an_empty_cache_dir_is_refused_before_anything_runs(self, tmp_path, monkeypatch):
        # an entry in the working directory, where a lookup in "" would read
        sd = severi_degeneration
        F = Field(5)
        constraint = SearchConstraint(incidences=(sym_point(point(F, 1, 0), point(F, 1, 2)),))
        search_pencils_ffield(2, 5, constraint, cache_dir=str(tmp_path))
        (entry,) = tmp_path.iterdir()
        honest = entry.read_bytes()
        monkeypatch.chdir(tmp_path)

        def untouched(*args):
            raise AssertionError("ran before refusing")

        for name in ("_load_cached", "compile_constraint", "_store_cached"):
            monkeypatch.setattr(sd, name, untouched)
        with pytest.raises(ValueError, match="cache_dir"):
            search_pencils_ffield(2, 5, constraint, cache_dir="")
        assert list(tmp_path.iterdir()) == [entry] and entry.read_bytes() == honest


def classify_stratum(pencil):
    """The stratum of a pencil's base divisor, from its gcd in Python: the classifier's oracle."""
    locus = base_locus(pencil)
    if locus.degree == 0:
        return "base_point_free"
    return "simple_base_divisor" if squarefree_form(locus) else "multiple_base_points"


def echelon_pencil(F, k, cell, f_vals, g_vals):
    """The pencil of a cell's echelon pair with the given free coordinates."""
    i, j = cell
    cols0, cols1 = severi_degeneration._free_columns(k, i, j)
    f, g = dict(zip(cols0, f_vals)), dict(zip(cols1, g_vals))
    f[i] = g[j] = 1
    return Pencil(form(F, [int(f.get(c, 0)) for c in range(k + 1)]),
                  form(F, [int(g.get(c, 0)) for c in range(k + 1)]))


def coordinates(q, width):
    """Every tuple of width residues mod q, lexicographically: a q^width x width array."""
    return np.array(list(itertools.product(range(q), repeat=width)),
                    dtype=np.int64).reshape(q**width, width)


def echelon_rows(k, pivot, cols, coords):
    """Echelon coefficient rows: 1 at pivot, coords (N x len(cols)) at cols, 0 elsewhere."""
    rows = np.zeros((len(coords), k + 1), dtype=np.int64)
    rows[:, pivot] = 1
    rows[:, cols] = coords
    return rows


def kernel_mats(k, q, constraint):
    """compile_constraint's matrices as the rank kernel takes them: one m x (k+1) x (k+1) array."""
    sd = severi_degeneration
    mats = sd.compile_constraint(k, q, constraint)
    return np.array(mats, dtype=sd._kernel_dtype(k, q)).reshape(-1, k + 1, k + 1)


def oracle_cell_matches(k, q, mats, cell):
    """Free coordinates (f, g) of a cell's matches, in (f, g) order, from testing every pair."""
    sd = severi_degeneration
    i, j = cell
    cols0, cols1 = sd._free_columns(k, i, j)
    f_assign, g_assign = coordinates(q, len(cols0)), coordinates(q, len(cols1))
    F_rows = echelon_rows(k, i, cols0, f_assign)
    mask = np.ones((len(f_assign), len(g_assign)), dtype=bool)
    for A in mats:
        R = (F_rows @ A) % q
        mask &= (R[:, [j]] + R[:, cols1] @ g_assign.T) % q == 0
    f_hit, g_hit = np.nonzero(mask)
    return list(zip(f_assign[f_hit], g_assign[g_hit]))


def brute_force_search(k, q, constraint, strata=True):
    """Count, samples and strata from testing every echelon pair: the search's oracle.

    Every f-row of every cell is tested against every g, so the matches come
    out in (cell, f, g) order; with strata, each is classified by its base
    divisor, and otherwise strata is None.
    """
    sd = severi_degeneration
    field = Field(q)
    mats = kernel_mats(k, q, constraint)
    count, samples, found = 0, [], {} if strata else None
    for cell in sd._cells(k):
        matches = oracle_cell_matches(k, q, mats, cell)
        count += len(matches)
        samples += [echelon_pencil(field, k, cell, f, g) for f, g in matches[:20]]
        if strata:
            for f, g in matches:
                name = classify_stratum(echelon_pencil(field, k, cell, f, g))
                found[name] = found.get(name, 0) + 1
    return count, tuple(samples[:20]), found


def conjugate_pair(F, rng):
    """A seeded point of the plane whose pair is conjugate over F_(q^2): v^2 - 4uw is no square."""
    q = F.q
    while True:
        v, w = rng.randrange(q), rng.randrange(q)
        if pow((v * v - 4 * w) % q, (q - 1) // 2, q) == q - 1:
            return severi_degeneration.SymPoint(F, 1, v, w)


def oracle_constraints(F, k, rng):
    """Seeded constraints of every kind the rank kernel must count: (name, constraint).

    Incidences at pairs of two F_q-points, at doubled points and at
    conjugate pairs; ramifications alone, on an incidence, and two at one
    point.
    """
    pts = projective_points(F)

    def xi():
        return sym_point(*rng.sample(pts, 2))

    def ram(e):
        return (rng.choice(pts), e)

    first = xi()
    a, b, c = rng.sample(pts, 3)
    return [
        ("incidence", SearchConstraint(incidences=(first,))),
        ("two incidences", SearchConstraint(incidences=(first, xi()))),
        ("repeated incidence", SearchConstraint(incidences=(first, first))),
        ("ramification", SearchConstraint(ramifications=(ram(rng.randint(2, k)),))),
        ("mixed", SearchConstraint(incidences=(xi(),), ramifications=(ram(2),))),
        ("doubled point and conjugate pair",
         SearchConstraint(incidences=(sym_point(a, a), conjugate_pair(F, rng)))),
        ("two ramifications on an incidence",
         SearchConstraint(incidences=(sym_point(a, b),), ramifications=((a, 2), (a, k)))),
        # Riemann-Hurwitz leaves no pencil totally ramified at three points
        ("inconsistent", SearchConstraint(ramifications=((a, k), (b, k), (c, k)))),
    ]


# The oracle classifies each match in Python, about 15 us apiece, so strata
# are compared where the count is at most this; above it a comparison takes
# seconds.
STRATA_CAP = 5000
# The oracle comparisons run the search's plain-int path too, with no size
# limit, up to this many pencil tests (Grassmannian x max(1, conditions)).
PYTHON_PATH_CAP = 100_000


def search_paths(monkeypatch, k, q, constraint):
    """Yield (path, jobs) to compare, with _PLAIN_MAX_TESTS set for the path.

    The rank kernel runs at jobs 1 and 2 whatever the size; the plain-int
    walk, which ignores jobs, at jobs 1 up to PYTHON_PATH_CAP pencil tests.
    The counts behind strata take the path too.  A search with no conditions
    takes neither: it walks for its samples alone.
    """
    sd = severi_degeneration
    tests = grassmannian_pencil_count(k, q) * max(1, len(sd.compile_constraint(k, q, constraint)))
    default = sd._PLAIN_MAX_TESTS
    paths = [("kernel", 0, (1, 2))]
    if tests <= PYTHON_PATH_CAP:
        paths.append(("python", float("inf"), (1,)))
    for path, cap, jobs_values in paths:
        monkeypatch.setattr(sd, "_PLAIN_MAX_TESTS", cap)
        for jobs in jobs_values:
            yield path, jobs
    monkeypatch.setattr(sd, "_PLAIN_MAX_TESTS", default)


@pytest.mark.parametrize("q", [5, 7, 11])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_rank_kernel_matches_brute_force(k, q, monkeypatch):
    """Both search paths against the oracle, the kernel at jobs 1 and 2."""
    monkeypatch.setattr(severi_degeneration, "_POOL_MIN_ROW_WORK", 0)  # jobs=2 forks
    rng = random.Random(f"rank-oracle:{k}:{q}")
    counts = {}
    grid = oracle_constraints(Field(q), k, rng) + [("empty", SearchConstraint())]
    for name, constraint in grid:
        want = SearchResult(*brute_force_search(k, q, constraint, strata=False))
        for path, jobs in search_paths(monkeypatch, k, q, constraint):
            got = search_pencils_ffield(k, q, constraint, jobs=jobs)
            assert got == want, (name, path, jobs)
        if want.count <= STRATA_CAP:
            want = SearchResult(*brute_force_search(k, q, constraint))
            assert sum(want.strata.values()) == want.count, name
            for path, jobs in search_paths(monkeypatch, k, q, constraint):
                got = search_pencils_ffield(k, q, constraint, jobs=jobs, report_strata=True)
                assert got == want, (name, path, jobs)
        counts[name] = want.count
    assert counts["repeated incidence"] == counts["incidence"] > 0
    assert counts["inconsistent"] == 0


def seeded_search_grid(rng, size):
    """(k, q, constraint) drawn from k = 2..4, q = 5..31, 0-5 incidences, some ramifications.

    An incidence is at two F_q-points, a doubled point or a conjugate pair.
    A ramification point lies on an incidence about half the time, and
    sometimes carries a second order.  The oracle tests about q^(2k-2)
    echelon pairs in the largest cell, so k = 4 keeps to q <= 11.
    """
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31]
    for _ in range(size):
        k = rng.randint(2, 4)
        q = rng.choice(primes[:3] if k == 4 else primes)
        F = Field(q)
        pts = projective_points(F)
        incidences, on = [], []
        for _ in range(rng.randint(0, 5)):
            kind = rng.random()
            if kind < 0.2:
                incidences.append(conjugate_pair(F, rng))
                continue
            pair = [rng.choice(pts)] * 2 if kind < 0.4 else rng.sample(pts, 2)
            incidences.append(sym_point(*pair))
            on += pair
        rams = ()
        if rng.random() < 0.3:
            at = rng.choice(on) if on and rng.random() < 0.5 else rng.choice(pts)
            rams = tuple((at, rng.randint(2, k)) for _ in range(1 + (rng.random() < 0.3)))
        yield k, q, SearchConstraint(incidences=incidences, ramifications=rams)


def sample_routes(monkeypatch):
    """Spy on the rank search's two sample routes: {"dense": walks, "sparse": solves}, as they run.

    A dense cell's keys come from _walked_keys (a search with no conditions
    walks too, for its samples alone, and is not counted), a sparse cell's
    from _solved called by _sample_keys itself, outside any walk.
    """
    sd = severi_degeneration
    routes, inside = {"dense": 0, "sparse": 0}, []
    walk, sample_keys, solved = sd._walked_keys, sd._sample_keys, sd._solved

    def within(name, fn):
        def run(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return run

    def counted_walk(q, k, mats, cells, limit):
        routes["dense"] += bool(mats)
        return within("walk", walk)(q, k, mats, cells, limit)

    def counted_solved(pivots, q, matches, cap):
        routes["sparse"] += inside[-1:] == ["sample keys"]
        return solved(pivots, q, matches, cap)

    monkeypatch.setattr(sd, "_walked_keys", counted_walk)
    monkeypatch.setattr(sd, "_sample_keys", within("sample keys", sample_keys))
    monkeypatch.setattr(sd, "_solved", counted_solved)
    return routes


def test_g_side_search_matches_brute_force(monkeypatch):
    """Counts, the 20 samples in order, and strata against the oracle, on both search paths.

    The grid holds dense cells (a single ramification, and seeded searches
    with few conditions), whose samples come from the f-row walk, and sparse
    ones (four incidences, and seeded searches with more), whose samples are
    solved for per g-row; both routes must run.  The walk alone must also
    find every cell's first matches.  Strata come from the counts of
    smaller degree, on both paths too.
    """
    sd = severi_degeneration
    monkeypatch.setattr(sd, "_POOL_MIN_ROW_WORK", 0)  # jobs=2 forks
    walk = sd._walked_keys
    routes = sample_routes(monkeypatch)
    F13 = Field(13)
    pts = projective_points(F13)
    rng = random.Random("g-side oracle")
    grid = [
        (3, 13, SearchConstraint(ramifications=((pts[5], 2),))),
        (3, 7, SearchConstraint()),
        (3, 13, SearchConstraint(incidences=tuple(
            sym_point(*rng.sample(pts, 2)) for _ in range(4)))),
    ] + list(seeded_search_grid(rng, 24))
    for k, q, constraint in grid:
        name = (k, q, constraint.to_json_dict())
        # the walk alone finds each cell's first matches
        mats = kernel_mats(k, q, constraint)
        plain = sd.compile_constraint(k, q, constraint)
        for cell_idx, cell in enumerate(sd._cells(k)):
            want = [echelon_pencil(Field(q), k, cell, f, g)
                    for f, g in oracle_cell_matches(k, q, mats, cell)[:sd.SAMPLE_LIMIT]]
            got = [Pencil(form(Field(q), f), form(Field(q), g))
                   for _, f, g in walk(q, k, plain, [cell_idx], sd.SAMPLE_LIMIT)]
            assert got == want, (name, cell)
        want = SearchResult(*brute_force_search(k, q, constraint, strata=False))
        for path, jobs in search_paths(monkeypatch, k, q, constraint):
            got = search_pencils_ffield(k, q, constraint, jobs=jobs)
            assert got == want, (name, path, jobs)
        if want.count <= STRATA_CAP:
            want = SearchResult(*brute_force_search(k, q, constraint))
            for path, jobs in search_paths(monkeypatch, k, q, constraint):
                got = search_pencils_ffield(k, q, constraint, jobs=jobs, report_strata=True)
                assert got == want, (name, path, jobs)
    assert routes["dense"] and routes["sparse"], routes


def test_samples_equal_the_checked_pencils(monkeypatch, tmp_path):
    """Samples, built from residues unchecked, equal the validating constructors' pencils.

    Their coefficients are plain ints, and they equal the oracle's samples.
    Every route that yields keys runs, at jobs 1 and 2: the plain-int search,
    the kernel's dense cells (the f-row walk) and sparse ones, and the walk
    of an unconstrained search; and each search again as a cache hit, which
    checks its entry's residues and independence on plain ints and builds
    its samples unchecked too.
    """
    sd = severi_degeneration
    monkeypatch.setattr(sd, "_POOL_MIN_ROW_WORK", 0)  # jobs=2 forks
    sample = sample_routes(monkeypatch)
    routes = dict.fromkeys(
        ["_plain_search", "_rank_search", "_walked_keys", "grassmannian_pencil_count"], 0)
    for name in routes:
        def spy(*args, _fn=getattr(sd, name), _name=name):
            routes[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sd, name, spy)
    F7, F13 = Field(7), Field(13)
    pts = projective_points(F13)
    rng = random.Random("trusted samples")
    searches = [
        (2, 7, SearchConstraint(incidences=(sym_point(point(F7, 1, 5), point(F7, 0, 1)),))),
        (3, 13, SearchConstraint(ramifications=((pts[5], 2),))),
        (3, 13, SearchConstraint(incidences=tuple(
            sym_point(*rng.sample(pts, 2)) for _ in range(4)))),
        (3, 7, SearchConstraint()),
    ] + list(seeded_search_grid(rng, 8))
    for n, (k, q, constraint) in enumerate(searches):
        name = (k, q, constraint.to_json_dict())
        want = brute_force_search(k, q, constraint, strata=False)[1]
        for jobs in (1, 2):
            cache = str(tmp_path / f"{n}-{jobs}")
            fresh = search_pencils_ffield(k, q, constraint, jobs=jobs, cache_dir=cache)
            hit = search_pencils_ffield(k, q, constraint, jobs=jobs, cache_dir=cache)
            for p in fresh.samples:
                assert all(type(c) is int for c in p.f.coeffs + p.g.coeffs), name
            checked = tuple(Pencil(BinaryForm(Field(q), k, p.f.coeffs),
                                   BinaryForm(Field(q), k, p.g.coeffs)) for p in fresh.samples)
            assert fresh.samples == checked == hit.samples == want, (name, jobs)
            assert (list(map(hash, fresh.samples)) == list(map(hash, checked))
                    == list(map(hash, hit.samples))), (name, jobs)
    assert all(routes.values()) and all(sample.values()), (routes, sample)


def test_cache_entries_are_the_sorted_documents(tmp_path):
    """An entry is json.dumps of its document with sort_keys, samples from Pencil.to_json_dict().

    Its name is the hash of the question's sorted document.  The searches
    hold incidences, ramifications at [1:0], [0:1] and elsewhere, strata
    with every stratum present and with none, entries of no samples, and
    k = 1..5; each is read back as a hit that equals the fresh result.
    """
    import hashlib

    F = Field(13)
    pts = projective_points(F)
    rng = random.Random("cache bytes")
    searches = [
        (3, 13, SearchConstraint(incidences=(sym_point(pts[1], pts[4]),),
                                 ramifications=((pts[0], 2), (pts[-1], 3))), True),
        (3, 5, SearchConstraint(), True),
        (2, 13, SearchConstraint(ramifications=((pts[7], 2),)), False),
        # Riemann-Hurwitz: no pencil is totally ramified at three points
        (3, 13, SearchConstraint(ramifications=((pts[0], 3), (pts[1], 3), (pts[-1], 3))), True),
        (2, 13, SearchConstraint(ramifications=((pts[2], 2), (pts[3], 2), (pts[-1], 2))), False),
        (1, 5, SearchConstraint(), True),
        (1, 13, SearchConstraint(incidences=(sym_point(pts[2], pts[9]),)), False),
        (4, 7, SearchConstraint(incidences=(sym_point(point(Field(7), 1, 2), point(Field(7), 0, 1)),),
                                ramifications=((point(Field(7), 1, 0), 3),)), True),
        (5, 7, SearchConstraint(incidences=tuple(
            sym_point(point(Field(7), 1, a), point(Field(7), 1, b))
            for a, b in [(0, 1), (2, 3), (4, 5), (6, 1)])), True),
        (5, 11, SearchConstraint(ramifications=((point(Field(11), 0, 1), 4),)), False),
    ] + [(k, q, constraint, strata)
         for (k, q, constraint), strata in zip(seeded_search_grid(rng, 8), itertools.cycle((0, 1)))]
    seen, sizes = set(), set()
    for n, (k, q, constraint, strata) in enumerate(searches):
        cache = tmp_path / str(n)
        result = search_pencils_ffield(k, q, constraint, cache_dir=str(cache),
                                       report_strata=bool(strata))
        question = {"k": k, "q": q, "constraint": constraint.to_json_dict()}
        key = hashlib.sha256(
            json.dumps(question, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        doc = dict(question, schema=1, count=result.count, strata=result.strata,
                   samples=[p.to_json_dict() for p in result.samples])
        (path,) = cache.iterdir()
        assert path.name == f"search-{key[:24]}.json"
        assert path.read_text() == json.dumps(doc, sort_keys=True, separators=(",", ":")), n
        hit = search_pencils_ffield(k, q, constraint, cache_dir=str(cache),
                                    report_strata=bool(strata))
        assert hit == result, n
        seen.update(result.strata or ())
        sizes.add((k, len(result.samples), result.strata == {}))
    assert seen == set(severi_degeneration._STRATA)
    assert {k for k, _, _ in sizes} == {1, 2, 3, 4, 5}
    assert (3, 0, True) in sizes and (2, 0, False) in sizes  # zero samples, with and without strata


def test_a_hit_decodes_only_residues_as_written(tmp_path):
    """A hit equals the fresh result; an entry whose samples differ from what is written is recomputed.

    So is an entry whose samples, though written as a search writes them,
    miss the conditions, and one that holds a stratum of 0, which no search
    writes.  Every doctored entry of the F_31 search also claims
    one more match, so returning it would show; each is recomputed and
    overwritten with the honest entry.
    """
    F = Field(31)
    rng = random.Random("strict reader")
    pts = projective_points(F)
    constraint = SearchConstraint(incidences=tuple(sym_point(*rng.sample(pts, 2)) for _ in range(2)))
    cache = tmp_path / "cache"
    truth = search_pencils_ffield(3, 31, constraint, cache_dir=str(cache))
    assert len(truth.samples) == severi_degeneration.SAMPLE_LIMIT
    assert search_pencils_ffield(3, 31, constraint, cache_dir=str(cache)) == truth
    (path,) = cache.iterdir()
    honest = path.read_bytes()

    def doctored(f=None, g=None, degree=3):
        doc = json.loads(honest)
        doc["count"] += 1
        sample = doc["samples"][-1]
        sample["f"]["degree"] = sample["g"]["degree"] = degree
        if f is not None:
            sample["f"]["coeffs"] = f
        if g is not None:
            sample["g"]["coeffs"] = g
        return doc

    coeffs = json.loads(honest)["samples"][-1]["f"]["coeffs"]
    bad = {"negative": "-3", "q itself": "31", "above q": "45", "a fraction": "1/2",
           "non-ASCII digits": "\u0663", "a leading zero": "03", "a sign": "+3",
           "a space": " 3", "a decimal point": "3.0", "empty": "", "an int": 3, "null": None}
    cases = {name: doctored(f=coeffs[:-1] + [value]) for name, value in bad.items()}
    cases.update({
        "too few coefficients": doctored(f=coeffs[:-1]),
        "too many coefficients": doctored(f=coeffs + ["0"]),
        "another degree": doctored(degree=2),
        "a float degree": doctored(degree=3.0),
        "a dependent pair": doctored(g=[str(2 * int(c) % 31) for c in coeffs]),
        "a zero form": doctored(g=["0"] * 4),
    })
    cases["raw non-ASCII digits"] = json.dumps(cases["non-ASCII digits"], ensure_ascii=False)
    # entries of canonical residues that no search writes
    cases["one sample fewer"] = doctored()
    cases["one sample fewer"]["samples"].pop()
    cases["strata summing to another count"] = dict(doctored(),
                                                    strata={"base_point_free": truth.count})
    cases["samples out of order"] = doctored()
    samples = cases["samples out of order"]["samples"]
    samples[0], samples[1] = samples[1], samples[0]
    cases["a repeated sample"] = doctored()
    cases["a repeated sample"]["samples"][-1] = cases["a repeated sample"]["samples"][-2]
    # an independent pair of residues, but g - f in place of g: not in echelon form
    g_last = json.loads(honest)["samples"][-1]["g"]["coeffs"]
    cases["not an echelon pair"] = doctored(g=[str((int(b) - int(a)) % 31)
                                             for a, b in zip(coeffs, g_last)])
    cases["f and g swapped"] = doctored(f=g_last, g=coeffs)
    cases["f not reduced at g's pivot"] = doctored(
        f=[c if t != g_last.index("1") else "1" for t, c in enumerate(coeffs)])
    # a reduced echelon pair that misses the conditions, its g's last
    # coordinate changed: the sample before it already comes first on f and
    # g's other coordinates, so the samples stay in order
    before, last = (json.loads(honest)["samples"][n] for n in (-2, -1))
    assert g_last.index("1") < 3
    assert ([int(c) for c in before["f"]["coeffs"] + before["g"]["coeffs"][:-1]]
            < [int(c) for c in last["f"]["coeffs"] + last["g"]["coeffs"][:-1]])
    mats = kernel_mats(3, 31, constraint).astype(np.int64)
    f, g = np.array(coeffs, dtype=np.int64), np.array(g_last, dtype=np.int64)
    g[-1] = next(x for x in range(31) if (f @ mats @ [*g[:-1], x] % 31).any())
    cases["a sample that misses the conditions"] = doctored(g=list(map(str, g.tolist())))
    for name, doc in cases.items():
        path.write_bytes(doc.encode() if isinstance(doc, str) else json.dumps(doc).encode())
        assert search_pencils_ffield(3, 31, constraint, cache_dir=str(cache)) == truth, name
        assert path.read_bytes() == honest, name

    # dimlab search --k 3 --q 7 --incidence 5,0,1: its last sample's g 0,1,5,3
    # becomes 0,1,5,4, still after the sample before it, and off the incidence
    F7 = Field(7)
    constraint = SearchConstraint(incidences=(severi_degeneration.SymPoint(F7, 5, 0, 1),))
    cache = tmp_path / "f7"
    truth = search_pencils_ffield(3, 7, constraint, cache_dir=str(cache))
    (path,) = cache.iterdir()
    honest = path.read_bytes()
    doc = json.loads(honest)
    assert doc["samples"][-1]["g"]["coeffs"] == ["0", "1", "5", "3"]
    doc["samples"][-1]["g"]["coeffs"][-1] = "4"
    path.write_bytes(json.dumps(doc).encode())
    assert search_pencils_ffield(3, 7, constraint, cache_dir=str(cache)) == truth
    assert path.read_bytes() == honest

    # dimlab search --k 2 --q 7 --incidence 1,2,3 --strata, its entry given a
    # stratum of 0 that the writer omits: a fresh search never prints it
    constraint = SearchConstraint(incidences=(severi_degeneration.SymPoint(F7, 1, 2, 3),))
    cache = tmp_path / "strata"
    truth = search_pencils_ffield(2, 7, constraint, cache_dir=str(cache), report_strata=True)
    assert truth.strata == {"base_point_free": 8}
    (path,) = cache.iterdir()
    honest = path.read_bytes()
    doc = json.loads(honest)
    doc["strata"]["simple_base_divisor"] = 0
    path.write_bytes(json.dumps(doc).encode())
    assert search_pencils_ffield(2, 7, constraint, cache_dir=str(cache),
                                 report_strata=True) == truth
    assert path.read_bytes() == honest


def packed_g_rows(k, q):
    """Cell and g-row of every row of the packed g index: each cell's echelon rows in order."""
    sd = severi_degeneration
    cells, rows = [], []
    for c, (i, j) in enumerate(sd._cells(k)):
        cols = sd._free_columns(k, i, j)[1]
        rows.append(echelon_rows(k, j, cols, coordinates(q, len(cols))))
        cells += [c] * len(rows[-1])
    return np.array(cells), np.concatenate(rows)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("k,q", [(1, 5), (2, 7), (3, 5), (4, 5)])
def test_cached_layouts_are_fresh_digit_builds(k, q, dtype, monkeypatch):
    """Each chunk's cells, g-rows and parts, as _layout keeps them, are the packed index's.

    The chunks of 7 rows span cells; _systems yields the cached arrays
    themselves, read-only, and a second pass over the index builds nothing.
    """
    sd = severi_degeneration
    monkeypatch.setattr(sd, "_RANK_CHUNK_ROWS", 7)
    sd._layout.cache_clear()
    want_cell, want_rows = packed_g_rows(k, q)
    mats = np.zeros((1, k + 1, k + 1), dtype=dtype)
    lo = chunks = 0
    spans = False
    for cell, rows, *_ in sd._systems(q, k, 0, len(want_cell), mats):
        stop, chunks = lo + len(cell), chunks + 1
        cached_cell, cached_rows, parts = sd._layout(q, k, lo, stop, np.dtype(dtype))
        assert cell is cached_cell and rows.base is cached_rows
        assert cached_rows.dtype == dtype and cached_rows.shape == (k + 1, stop - lo)
        assert cached_cell.dtype == np.uint8  # a cell index is below C(k + 1, 2)
        assert np.array_equal(cell, want_cell[lo:stop]) and np.array_equal(rows, want_rows[lo:stop])
        for array in (cached_cell, cached_rows, rows):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        at = 0
        for t, part, pivot, cols in parts:
            i, j = sd._cells(k)[t]
            assert part.start == at and (cell[part] == t).all()
            assert (pivot, cols) == (j, sd._free_columns(k, i, j)[1])
            at = part.stop
        assert at == stop - lo
        lo = stop
        spans = spans or len(parts) > 1
    assert lo == len(want_cell) and (spans or k == 1)
    assert sd._layout.cache_info().misses == chunks
    if chunks <= sd._LAYOUT_CHUNKS:  # all still kept: a second pass builds nothing
        list(sd._systems(q, k, 0, len(want_cell), mats))
        assert sd._layout.cache_info().misses == chunks


def test_the_layout_cache_keeps_at_most_its_chunks(monkeypatch):
    """A search of more chunks than _LAYOUT_CHUNKS leaves that many in the cache."""
    sd = severi_degeneration
    monkeypatch.setattr(sd, "_RANK_CHUNK_ROWS", 7)  # 198 g-rows at k = 3 over F_13: 29 chunks
    monkeypatch.setattr(sd, "_PLAIN_MAX_TESTS", 0)
    sd._layout.cache_clear()
    F = Field(13)
    search_pencils_ffield(3, 13, SearchConstraint(incidences=(sym_point(point(F, 1, 2),
                                                                        point(F, 0, 1)),)))
    info = sd._layout.cache_info()
    assert info.misses == 29 > sd._LAYOUT_CHUNKS
    assert info.currsize == info.maxsize == sd._LAYOUT_CHUNKS


@pytest.mark.parametrize("k,q", [(2, 7), (3, 5), (4, 5)])
def test_results_do_not_depend_on_the_layout_cache(k, q, monkeypatch):
    """Counts, samples and strata, cold and warm, at jobs 1 and 2, by the kernel."""
    sd = severi_degeneration
    monkeypatch.setattr(sd, "_POOL_MIN_ROW_WORK", 0)  # jobs=2 forks
    monkeypatch.setattr(sd, "_PLAIN_MAX_TESTS", 0)
    monkeypatch.setattr(sd, "_RANK_CHUNK_ROWS", 7)
    rng = random.Random(f"layouts:{k}:{q}")
    for name, constraint in oracle_constraints(Field(q), k, rng):
        for strata in (False, True):
            results = []
            for jobs in (1, 2):
                sd._layout.cache_clear()
                for _ in range(2):  # cold, then warm
                    results.append(search_pencils_ffield(k, q, constraint, jobs=jobs,
                                                         report_strata=strata))
            assert all(r == results[0] for r in results), (name, strata)


@pytest.mark.parametrize("q", [7, 11, 31])
def test_ramification_rows_are_the_taylor_shift(q):
    """compile_constraint's ramification matrices from the Taylor rows of _move_to_origin.

    Taylor row t holds coefficient t of each basis form moved to the point,
    and each order-e ramification contributes the antisymmetrized products of
    rows a < b < e, at [0:1], [1:0] and seeded [1:t], for orders 2..k.
    """
    F = Field(q)
    rng = random.Random(f"taylor:{q}")
    for k in range(2, 7):
        span = range(k + 1)
        basis = [BinaryForm(F, k, [int(t == col) for t in span]) for col in span]
        for pt in [point(F, 0, 1), point(F, 1, 0)] + [point(F, 1, rng.randrange(1, q))
                                                      for _ in range(3)]:
            for order in range(2, k + 1):
                T = list(zip(*(_move_to_origin(b, pt, order) for b in basis)))
                want = tuple(
                    tuple(tuple((T[a][r] * T[b][c] - T[b][r] * T[a][c]) % q for c in span)
                          for r in span)
                    for a, b in itertools.combinations(range(order), 2))
                constraint = SearchConstraint(ramifications=((pt, order),))
                got = severi_degeneration.compile_constraint(k, q, constraint)
                assert got == want, (k, pt.to_json(), order)


def plain_pivots(eqs):
    """A g-row's kernel pivot equations, cut to its cell's unknowns, as _sample_keys cuts them.

    eqs is the row's n x (n+1) slice of _eliminate's pivots, as lists: entry
    u keeps its first u + 2 residues where unknown u has a pivot, and is None
    where it is free, as _eliminate_plain gives them.
    """
    return [r[: u + 2] if r[u + 1] else None for u, r in enumerate(eqs)]


def side_matches(k, q, mats, cell_idx):
    """Every match of a cell, solved for by the rank kernel with g fixed: sorted f|g rows.

    Each solvable g-row's pivots go to the shared solver (_solved) with the
    cap q^n, which lists all of the row's matches.
    """
    sd = severi_degeneration
    i, j = sd._cells(k)[cell_idx]
    cols0 = sd._free_columns(k, i, j)[0]
    n = len(cols0)
    total = sum(q ** len(sd._free_columns(k, a, b)[1]) for a, b in sd._cells(k))
    found = []  # f's free coordinates, then g: they sort as f|g does
    for cell, rows, pivots, _, ok in sd._systems(q, k, 0, total, mats):
        at = ok & (cell == cell_idx)
        for g, eqs in zip(rows[at].tolist(), pivots[:n, : n + 1, at].transpose(2, 0, 1).tolist()):
            eqs = plain_pivots(eqs)
            found += [[*x, *g] for x in sd._solved(eqs, q, q ** eqs.count(None), q**n)]
    found = np.array(sorted(found), dtype=np.int64).reshape(-1, n + k + 1)
    return np.concatenate([echelon_rows(k, i, cols0, found[:, :n]), found[:, n:]], axis=1).tolist()


@pytest.mark.parametrize("q", [5, 7, 11])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_f_and_g_fixed_systems_find_the_same_matches(k, q):
    """The plain-int walk, f fixed, finds every match the kernel finds with g fixed, in order.

    With cap = q^n each f-row yields all its matches, and their number is
    the row's count.
    """
    sd = severi_degeneration
    rng = random.Random(f"rank-oracle:{k}:{q}")
    for name, constraint in oracle_constraints(Field(q), k, rng):
        mats = kernel_mats(k, q, constraint)
        plain = sd.compile_constraint(k, q, constraint)
        found = 0
        for cell_idx, (_, j) in enumerate(sd._cells(k)):
            rows = list(sd._f_row_walk(q, k, cell_idx, plain, q ** (k - j)))
            assert all(count == len(keys) for count, keys in rows), (name, cell_idx)
            by_f = [[*f, *g] for _, keys in rows for _, f, g in keys]
            assert by_f == side_matches(k, q, mats, cell_idx), (name, cell_idx)
            found += len(by_f)
        assert (found == 0) == (name == "inconsistent"), name


@pytest.mark.parametrize("q", [5, 7, 11])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_walk_keys_do_not_depend_on_the_first_chunk(k, q, monkeypatch):
    """The samples, from the walk and the sparse route, whatever chunks the rank pass takes.

    The rank pass decides each cell's route, and keeps the sparse cells'
    g-rows, chunk by chunk; with chunks of 1, 7 and 2048 rows the keys are
    those of each cell's first matches.
    """
    sd = severi_degeneration
    rng = random.Random(f"rank-oracle:{k}:{q}")
    for name, constraint in oracle_constraints(Field(q), k, rng):
        mats = kernel_mats(k, q, constraint)
        want = [(c, tuple(row[: k + 1]), tuple(row[k + 1 :]))
                for c in range(len(sd._cells(k)))
                for row in side_matches(k, q, mats, c)[:sd.SAMPLE_LIMIT]]
        for rows in (1, 7, 2048):
            monkeypatch.setattr(sd, "_RANK_CHUNK_ROWS", rows)
            got = sd._rank_search(q, k, sd.compile_constraint(k, q, constraint), 0, 1, True)[1]
            assert got == want[:sd.SAMPLE_LIMIT], (name, rows)


def test_system_chunks_grow_fourfold_to_the_caps():
    sd = severi_degeneration
    no_conditions = np.zeros((0, 4, 4), dtype=np.int64)
    # a g-range not starting at 0: 8192 once its first 8192 rows are done
    sizes = [len(rows) for _, rows, *_ in sd._systems(211, 3, 5, 211**2, no_conditions)]
    assert sizes == [2048] * 4 + [8192] * 4 + [211**2 - 5 - 5 * 8192]
    # the packed g index of every cell takes the same chunks; the last runs
    # from inside cell (0, 1) over all five other cells
    chunks = list(sd._systems(211, 3, 0, 211**2 + 2 * 211 + 3, no_conditions))
    assert [len(rows) for _, rows, *_ in chunks] == [2048] * 4 + [8192] * 4 + [3986]
    assert np.bincount(chunks[-1][0]).tolist() == [211**2 - 5 * 8192, 211, 1, 211, 1, 1]


def cell_systems(k, q, mats, cell_idx):
    """The (k+1) x m x (n+1) system of a cell: each condition's rows at f's pivot and unknowns.

    A g-row's system, m equations in f's n free coordinates, is the row times
    this, zero-padded to the k - 1 unknowns of the widest cell.
    """
    i, j = severi_degeneration._cells(k)[cell_idx]
    cols0, _ = severi_degeneration._free_columns(k, i, j)
    system = np.zeros((k + 1, len(mats), k), dtype=np.int64)
    for e, A in enumerate(mats.astype(np.int64)):
        system[:, e, : len(cols0) + 1] = A[[i, *cols0]].T
    return system


@pytest.mark.parametrize("k,q", [(2, 7), (3, 5), (3, 11), (4, 5)])
def test_packed_pivots_are_each_cells_own(k, q, monkeypatch):
    """Each cell's slice of the shared, padded eliminations is its own elimination."""
    sd = severi_degeneration
    monkeypatch.setattr(sd, "_RANK_CHUNK_ROWS", 7)  # chunks that span cells
    rng = random.Random(f"packed:{k}:{q}")
    total = sum(q ** len(sd._free_columns(k, i, j)[1]) for i, j in sd._cells(k))
    for name, constraint in oracle_constraints(Field(q), k, rng):
        mats = kernel_mats(k, q, constraint)
        chunks = list(sd._systems(q, k, 0, total, mats))
        assert any(len(set(cell.tolist())) > 1 for cell, *_ in chunks)
        cells, all_rows, solvable = (np.concatenate([chunk[at] for chunk in chunks])
                                     for at in (0, 1, 4))
        all_pivots = np.concatenate([chunk[2] for chunk in chunks], axis=-1)
        at = 0
        for c, (i, _) in enumerate(sd._cells(k)):
            n = k - 1 - i
            # the cell's run of the packed index, its pivots cut to its unknowns
            rows, pivots = all_rows[cells == c], all_pivots[:n, : n + 1, cells == c]
            # the cell's own systems, unpadded, eliminated alone
            W = np.einsum("bs,sen->enb", rows, cell_systems(k, q, mats, c)[..., : n + 1]) % q
            own, _, own_ok = sd._eliminate(np.ascontiguousarray(W), q)
            assert np.array_equal(pivots, own), (name, c)
            assert np.array_equal(solvable[at : at + len(rows)], own_ok), (name, c)
            at += len(rows)
        assert at == total


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("k,q", [(2, 7), (3, 5), (3, 11), (4, 5)])
def test_built_systems_are_each_rows_product_with_its_cells_system(k, q, dtype, monkeypatch):
    """Each system _systems builds, batch last, is its g-row times its cell's system mod q.

    Cell c's (k+1) x m x (n+1) system holds, for each condition A, the rows
    of A at f's pivot (the constant) and free coordinates, then zeros up to
    the widest cell's n unknowns.  Chunks of 7 rows span several cells of
    the packed index.
    """
    sd = severi_degeneration
    built = []
    eliminate = sd._eliminate

    def spy(W, q, spare=None):
        built.append(W.copy())
        return eliminate(W, q, spare)

    monkeypatch.setattr(sd, "_eliminate", spy)
    monkeypatch.setattr(sd, "_RANK_CHUNK_ROWS", 7)
    rng = random.Random(f"systems:{k}:{q}")
    cells = range(len(sd._cells(k)))
    total = sum(q ** len(sd._free_columns(k, i, j)[1]) for i, j in sd._cells(k))
    for name, constraint in oracle_constraints(Field(q), k, rng):
        mats = kernel_mats(k, q, constraint).astype(dtype)
        systems = [cell_systems(k, q, mats, c).reshape(k + 1, -1) for c in cells]
        built.clear()
        chunks = list(sd._systems(q, k, 0, total, mats))
        assert len(built) == len(chunks)
        assert any(len(set(cell.tolist())) > 1 for cell, *_ in chunks)
        for (cell, rows, *_), W in zip(chunks, built):
            assert W.dtype == rows.dtype == dtype
            want = np.stack([rows[b].astype(np.int64) @ systems[c] % q
                             for b, c in enumerate(cell.tolist())], axis=-1)
            assert np.array_equal(W.reshape(-1, len(cell)), want), name


def oracle_rank(rows, q):
    """Rank mod q of a list of integer rows, by Gaussian elimination in Python."""
    rows = [[x % q for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [(x - factor * y) % q for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def seeded_systems(rng, q, m, width, count=12):
    """Augmented systems mod q: random, sparse, all zero, and with a repeated equation."""
    systems = []
    for t in range(count):
        zero_frac = (0.0, 0.5, 0.8, 1.0)[t % 4]
        rows = [[0 if rng.random() < zero_frac else rng.randrange(q) for _ in range(width)]
                for _ in range(m)]
        if m > 1 and t % 3 == 0:
            rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
        if m > 1 and t % 5 == 0:  # a multiple of another equation
            a, b = rng.sample(range(m), 2)
            rows[a] = [rng.randrange(q) * x % q for x in rows[b]]
        systems.append(rows)
    return systems


# the largest prime p with (p-1)^2 < 2^63, the bound of the fraction-free update
INT64_EDGE_PRIME = 3037000493
# the largest prime p with (p-1)^2 < 2^31, the same bound in int32
INT32_EDGE_PRIME = 46337
# the largest prime p with (p-1)^2 < 2^15, the same bound in int16
INT16_EDGE_PRIME = 181


def with_narrow(int64_qs, int32_qs, int16_qs):
    """(q, dtype) parameters: the int64 ones keep their ids, the others end in -int32 or -int16."""
    return ([pytest.param(q, np.int64, id=str(q)) for q in int64_qs]
            + [pytest.param(q, np.int32, id=f"{q}-int32") for q in int32_qs]
            + [pytest.param(q, np.int16, id=f"{q}-int16") for q in int16_qs])


@pytest.mark.parametrize("q,dtype", with_narrow([3, 5, 101, 2**31 - 1, INT64_EDGE_PRIME],
                                                [3, 5, 101, INT32_EDGE_PRIME],
                                                [3, 5, 101, INT16_EDGE_PRIME]))
def test_eliminate_matches_the_python_oracle(q, dtype):
    rng = random.Random(f"eliminate:{q}")
    for m in range(0, 7):
        for width in range(1, 7):
            systems = seeded_systems(rng, q, m, width)
            n = width - 1
            # batch last, the constants (each row's last entry) in column 0
            S = np.array(systems, dtype=dtype).reshape(len(systems), m, width)
            W = np.ascontiguousarray(np.roll(S, 1, axis=2).transpose(1, 2, 0))
            pivots, ranks, solvable = severi_degeneration._eliminate(W, q)
            assert pivots.shape == (n, width, len(systems))
            assert pivots.dtype == dtype
            for b, rows in enumerate(systems):
                coeffs = [row[:n] for row in rows]
                rank = oracle_rank(coeffs, q)
                assert ranks[b] == rank, (m, width, b)
                assert solvable[b] == (oracle_rank(rows, q) == rank), (m, width, b)
                # each pivot equation as a row of the system: unknowns, then the constant
                eqs = np.roll(pivots[:, :, b], -1, axis=1).tolist()
                assert all(0 <= x < q for eq in eqs for x in eq)
                for c, eq in enumerate(eqs):
                    # only its own unknown and more significant ones
                    assert not any(eq[c + 1 : n]), (m, width, b, c)
                    if eq[c] == 0:
                        assert not any(eq), (m, width, b, c)
                # the pivot equations lie in the row space, and span it when solvable
                assert oracle_rank(rows + eqs, q) == oracle_rank(rows, q)
                if solvable[b]:
                    assert oracle_rank(eqs, q) == oracle_rank(rows, q)


@pytest.mark.parametrize("q", [3, 5, 101, 2**31 - 1, INT64_EDGE_PRIME])
def test_plain_elimination_matches_the_kernel(q):
    """_eliminate_plain gives _eliminate's pivot equations, rank and solvability.

    The systems are those of test_eliminate_matches_the_python_oracle, each
    eliminated alone on plain ints; a free unknown's pivot equation is None,
    where _eliminate's is zero, and a pivot equation stops at its unknown.
    The kernel's pivots, cut as _sample_keys cuts them, are the plain ones.
    For each solvable system the shared solver (_solved), from either, gives
    the first cap solutions in lexicographic order at caps 1, 20 and q^free:
    the first of F_q^n, listed whole, that satisfy the equations, where
    F_q^n has at most 101^2 points (every system over F_3 and F_5, and up to
    two unknowns over F_101).  Elsewhere, at caps 1 and 20, the solutions
    satisfy the equations, rise strictly, and number min(q^free, cap).
    """
    sd = severi_degeneration
    rng = random.Random(f"eliminate:{q}")
    for m in range(0, 7):
        for width in range(1, 7):
            systems = seeded_systems(rng, q, m, width)
            S = np.array(systems, dtype=np.int64).reshape(len(systems), m, width)
            W = np.ascontiguousarray(np.roll(S, 1, axis=2).transpose(1, 2, 0))
            pivots, ranks, solvable = sd._eliminate(W, q)
            n = width - 1
            listed = q**n <= 101**2
            points = coordinates(q, n) if listed else None
            for b, rows in enumerate(systems):
                eqs = [row[-1:] + row[:-1] for row in rows]  # the constant first
                plain, rank, ok = sd._eliminate_plain(eqs, width, q)
                padded = [[0] * width if eq is None else eq + [0] * (width - len(eq))
                          for eq in plain]
                assert padded == pivots[:, :, b].tolist(), (m, width, b)
                assert (rank, ok) == (ranks[b], solvable[b]), (m, width, b)
                if not ok:
                    continue
                converted = plain_pivots(pivots[:, :, b].tolist())
                assert converted == plain, (m, width, b)
                matches = q ** plain.count(None)
                assert matches == q ** (n - rank), (m, width, b)
                if listed:
                    E = np.array(eqs, dtype=np.int64).reshape(m, width)
                    hits = ((points @ E[:, 1:].T + E[:, 0]) % q == 0).all(axis=1)
                    want = list(map(tuple, points[hits].tolist()))
                    assert len(want) == matches, (m, width, b)
                for cap in [1, 20] + [matches] * listed:
                    for given in (plain, converted):
                        got = sd._solved(given, q, matches, cap)
                        if listed:
                            assert got == want[:cap], (m, width, b, cap)
                            continue
                        assert len(got) == min(matches, cap) and got == sorted(set(got))
                        assert all((e[0] + sum(map(mul, e[1:], x))) % q == 0
                                   for x in got for e in eqs), (m, width, b, cap)


@pytest.mark.parametrize("q,dtype", with_narrow([3, 101, 2**31 - 1, INT64_EDGE_PRIME],
                                                [3, 101, INT32_EDGE_PRIME, 2**31 - 1],
                                                [3, 5, 101, INT16_EDGE_PRIME]))
def test_mod_matches_the_remainder_operator(q, dtype):
    # the kernel's entries stay within max(1, k-1)(q-1)^2 + q - 1 in size,
    # below 2^15 in int16 and 2^31 in int32 (_kernel_dtype), and within
    # (k+1)(q-1)^2 < 2^63 in int64 (the guard), so draw from the dtype's whole
    # range, with the extremes and the multiples of q that fit
    rng = np.random.default_rng(q)
    top = np.iinfo(dtype)
    edges = [top.min, top.min + 1, top.max, 0, 1, -1, q, -q, q - 1, 1 - q, (q - 1) ** 2,
             -((q - 1) ** 2), 2 * q, -2 * q]
    edges = [x for x in edges if top.min <= x <= top.max]
    small = rng.integers(max(-5 * q, top.min), min(5 * q, top.max), size=(64, 8), dtype=dtype)
    wide = rng.integers(top.min, top.max, size=(64, 8), dtype=dtype, endpoint=True)
    for a in [np.array(edges, dtype=dtype), small, wide]:
        want = a % q
        got = severi_degeneration._mod(a.copy(), q)
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        work = np.empty_like(a)
        assert np.array_equal(severi_degeneration._mod(a.copy(), q, work), want)


def test_ladder_strata_match_the_frozen_answers(monkeypatch):
    """Every search of every ladder variant against perfbench/expected.json.

    Each count equals the frozen one, every sample meets its constraint, and
    the strata search's strata equal the frozen ones.
    """
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    with open(os.path.join(bench, "expected.json")) as fh:
        frozen = json.load(fh)["ladder"]
    monkeypatch.syspath_prepend(bench)
    import pencillab
    from pencillab import fields
    from workloads import LADDER_VARIANTS, ladder_searches

    assert len(frozen["strata"]) == len(frozen["counts"]) == LADDER_VARIANTS
    searched = 0
    for variant in range(LADDER_VARIANTS):
        searches = ladder_searches(pencillab, fields, severi_degeneration, variant,
                                   frozen["incidence_pairs"])
        assert len(searches) == len(frozen["counts"][variant]) == 13, variant
        for label, _, q, constraint, jobs, strata in searches:
            name = (variant, label)
            res = search_pencils_ffield(3, q, constraint, jobs=jobs, report_strata=strata)
            assert res.count == frozen["counts"][variant][label], name
            assert len(res.samples) == min(res.count, severi_degeneration.SAMPLE_LIMIT), name
            for pen in res.samples:
                curve = bezoutian_curve(pen)
                assert all(curve.contains(sp) for sp in constraint.incidences), name
                assert all(has_ramification_at(pen, pt, e)
                           for pt, e in constraint.ramifications), name
            if strata:
                assert res.strata == frozen["strata"][variant], name
            searched += 1
    assert searched == 13 * LADDER_VARIANTS


@pytest.mark.parametrize("q", [7, 13])
def test_pair_points_factor_every_pair(q):
    """_pair_points gives back {a, b} from sym_point(a, b), for every pair of F_q-points, a = b too.

    Every other point of the plane has a discriminant that is no square, and
    is one closed point of degree 2: q(q - 1)/2 of them.
    """
    sd = severi_degeneration
    F = Field(q)
    pts = projective_points(F)
    split = set()
    for a, b in itertools.combinations_with_replacement(pts, 2):
        sp = sym_point(a, b)
        assert sorted(sd._pair_points(q, *sp.coords())) == sorted({a.coords(), b.coords()})
        split.add(sp.coords())
    plane = [(1, v, w) for v in range(q) for w in range(q)] + [(0, 1, w) for w in range(q)]
    conjugate = [c for c in plane + [(0, 0, 1)] if c not in split]
    assert len(split) == (q + 1) * (q + 2) // 2 and len(conjugate) == q * (q - 1) // 2
    for u, v, w in conjugate:
        assert pow((v * v - 4 * u * w) % q, (q - 1) // 2, q) == q - 1
        assert sd._pair_points(q, u, v, w) == ((u, v, w),)
    assert all(sd._sqrt_mod(x * x, q) in (x, q - x) for x in range(q))


def test_strata_with_no_conditions_are_the_closed_forms():
    """BPF_k = q^(2k-2), simple = sum S_d q^(2(k-d)-2), and the strata sum to the Grassmannian.

    S_d counts the squarefree effective divisors of degree d on the line:
    S_1 = q + 1, S_2 = q^2 and S_d = q^d - q^(d-2) from d = 3.  Each is a
    base divisor h of h V' for the q^(2(k-d)-2) base-point-free V'.  For
    k = 1..8, from the closed forms alone, so q <= k is checked too, through
    _strata_from_counts; a search needs q > k.  k = 3 over F_101 splits as
    104,060,401 / 1,050,703 / 102.
    """
    sd = severi_degeneration
    for q in (3, 5, 7, 11, 13, 101):
        squarefree = [1, q + 1, q * q] + [q**d - q ** (d - 2) for d in range(3, 8)]
        for k in range(1, 9):
            count = grassmannian_pencil_count(k, q)
            free, simple, multiple = sd._strata_from_counts(
                k, q, SearchConstraint(), count, 1, 0, sd.DEFAULT_SEARCH_BUDGET)
            assert free == q ** (2 * k - 2), (k, q)
            assert simple == sum(squarefree[d] * q ** (2 * (k - d) - 2) for d in range(1, k)), (k, q)
            assert free + simple + multiple == count and multiple >= 0, (k, q)
            assert (multiple > 0) == (k > 2), (k, q)
    res = search_pencils_ffield(3, 101, SearchConstraint(), report_strata=True)
    assert res.strata == {"base_point_free": 104060401, "simple_base_divisor": 1050703,
                          "multiple_base_points": 102}
    assert res.count == grassmannian_pencil_count(3, 101)


def trimmed(f):
    """The coefficients of f, constant term first, without the zeros at the top."""
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def poly_rem(a, b, q):
    """a mod b over F_q, coefficients from the constant term up, b's last one nonzero."""
    a = list(a)
    for top in range(len(a) - 1, len(b) - 2, -1):
        c = a[top] * pow(b[-1], -1, q)
        for i, y in enumerate(b):
            a[top - len(b) + 1 + i] = (a[top - len(b) + 1 + i] - c * y) % q
    return trimmed(a)


def is_squarefree(f, q):
    """Whether f over F_q, constant term first and of degree below q, has no square factor."""
    a, b = trimmed(f), trimmed([i * c % q for i, c in enumerate(f)][1:])
    while b:  # Euclid: gcd(f, f') is a constant
        a, b = b, poly_rem(a, b, q)
    return len(a) <= 1


def form_order(c, p, q):
    """The order at p of the binary form sum c_i x0^(d-i) x1^i."""
    if p == (0, 1):  # x0^n divides it: its last n coefficients vanish
        return next(n for n in range(len(c)) if c[len(c) - 1 - n])
    f, t, n = list(c), p[1], 0  # its value at (1, x), divided by x - t while t is a root
    while sum(x * pow(t, i, q) for i, x in enumerate(f)) % q == 0:
        quotient, acc = [0] * (len(f) - 1), 0
        for i in range(len(f) - 1, 0, -1):
            acc = (f[i] + t * acc) % q
            quotient[i - 1] = acc
        f, n = quotient, n + 1
    return n


def divisor_oracle_strata(k, q, constraint):
    """Strata from every base divisor written out: BPF by recursion on the degree.

    Every binary form h = sum c_i x0^(d-i) x1^i of degree 1..k-1, up to a
    scalar, is an effective divisor.  The pencils of degree m meeting C
    with base divisor exactly h are h V' for the base-point-free V' meeting
    C_h, so N_m(C), a search's count, is the sum of BPF_(m - deg h)(C_h) over
    h, h = 1 included.  h kills an incidence iff it shares a root with the
    pair's form w x0^2 - v x0 x1 + u x1^2: a root among the points of the
    line, or the whole form where it has none.  It lowers each ramification
    order by its order at the point.  The simple stratum sums BPF over the
    squarefree h != 1.
    """
    count = search_pencils_ffield(k, q, constraint).count
    if not count:
        return {}
    pts = [p.coords() for p in projective_points(Field(q))]
    syms = {sp.coords(): sp for sp in constraint.incidences}
    points = {pt.coords(): pt for pt, _ in constraint.ramifications}
    rams = sorted((p, max(e for pt, e in constraint.ramifications if pt.coords() == p))
                  for p in points)
    roots = {(u, v, w): [p for p in pts if (w * p[0] ** 2 - v * p[0] * p[1] + u * p[1] ** 2) % q == 0]
             for u, v, w in syms}
    effects = {}  # (degree, incidences killed, orders at the ramification points, squarefree)
    for d in range(1, k):
        for lead in range(d + 1):
            for rest in itertools.product(range(q), repeat=d - lead):
                c = (0,) * lead + (1,) + rest
                killed = frozenset(
                    s for s in syms
                    if (any(form_order(c, p, q) for p in roots[s]) if roots[s]
                        else not poly_rem(c, (s[2], -s[1] % q, s[0]), q)))
                key = (d, killed, tuple(form_order(c, p, q) for p, _ in rams),
                       form_order(c, (0, 1), q) <= 1 and is_squarefree(c, q))
                effects[key] = effects.get(key, 0) + 1
    free = {}

    def bpf(m, alive, orders):
        if (m, alive, orders) not in free:
            conds = SearchConstraint([syms[s] for s in sorted(alive)],
                                     [(points[p], e) for (p, _), e in zip(rams, orders) if e > 1])
            total = 0 if max(orders, default=0) > m else search_pencils_ffield(m, q, conds).count
            if total:  # else every term is 0 too
                total -= sum(c * bpf(m - d, alive - killed, tuple(map(sub, orders, ords)))
                             for (d, killed, ords, _), c in effects.items() if d < m)
            free[m, alive, orders] = total
        return free[m, alive, orders]

    alive, orders = frozenset(syms), tuple(e for _, e in rams)
    base_free = bpf(k, alive, orders)
    simple = sum(c * bpf(k - d, alive - killed, tuple(map(sub, orders, ords)))
                 for (d, killed, ords, squarefree), c in effects.items() if squarefree)
    strata = zip(severi_degeneration._STRATA, (base_free, simple, count - base_free - simple))
    return {name: c for name, c in strata if c}


@pytest.mark.parametrize("k", [5, 6])
def test_strata_match_the_divisor_oracle(k):
    """Strata at k = 5 and 6 over F_7 against the divisor oracle, on constraints of every kind.

    The brute-force oracle, which classifies every match, is too slow here.
    At k = 6 the oracle writes out 22,874 divisors a constraint, so only
    the kinds with an incidence of each sort and a ramification run.
    """
    rng = random.Random(f"divisor-oracle:{k}")
    kinds = {"incidence", "mixed", "doubled point and conjugate pair",
             "two ramifications on an incidence", "inconsistent"}
    for name, constraint in oracle_constraints(Field(7), k, rng):
        if k == 6 and name not in kinds:
            continue
        got = search_pencils_ffield(k, 7, constraint, report_strata=True)
        assert got.strata == divisor_oracle_strata(k, 7, constraint), name


def test_divisor_oracle_matches_brute_force():
    """The divisor oracle against the classifying one, on every kind at k = 3 and 4.

    And at k = 5 over F_7, where four incidences leave few enough matches
    to classify.
    """
    grid = [(k, q, constraint) for k, q in ((3, 5), (3, 7), (4, 5))
            for _, constraint in oracle_constraints(Field(q), k, random.Random(f"div:{k}:{q}"))]
    rng = random.Random("div:5:7")
    pts = projective_points(Field(7))
    grid.append((5, 7, SearchConstraint(incidences=[sym_point(*rng.sample(pts, 2)) for _ in range(4)])))
    for k, q, constraint in grid:
        want = brute_force_search(k, q, constraint)[2]
        assert divisor_oracle_strata(k, q, constraint) == want, (k, q, constraint.to_json_dict())


def boundary_searches():
    """(k, q, constraint, strata) of small searches, k = 1 included, for the path boundary."""
    F3, F5, F7 = Field(3), Field(5), Field(7)
    unique = ((point(F5, 1, 0), 2), (point(F5, 0, 1), 2))  # reproduce unique-pencil
    two = tuple(sym_point(point(F5, 1, a), point(F5, 1, b)) for a, b in ((0, 1), (2, 4)))
    return [
        (1, 3, SearchConstraint(), False),  # the one pencil of the line
        (1, 3, SearchConstraint(incidences=(sym_point(point(F3, 1, 0), point(F3, 1, 1)),)), True),
        (2, 5, SearchConstraint(ramifications=unique), False),
        (2, 5, SearchConstraint(ramifications=unique), True),
        (2, 7, SearchConstraint(incidences=(sym_point(point(F7, 1, 5), point(F7, 0, 1)),)), True),
        (2, 11, SearchConstraint(), False),
        (3, 5, SearchConstraint(incidences=two), True),
    ]


def test_results_agree_on_both_sides_of_the_brute_force_size(monkeypatch, tmp_path):
    """With the constant at a search's pencil tests it runs on plain ints; one below, ranked.

    A strata search too; its smaller counts follow, each by its own size.
    Count, samples, strata and the cache entry's bytes agree, and so do the
    budget refusals: one step short of the work, and with strata the work
    alone.  A search with no conditions takes neither path: its count is the
    Grassmannian's and its samples come from the walk.
    """
    sd = severi_degeneration
    ran = []
    for name in ("_plain_search", "_rank_search"):
        def spy(*args, _fn=getattr(sd, name), _name=name):
            ran.append(_name)
            return _fn(*args)
        monkeypatch.setattr(sd, name, spy)
    for n, (k, q, constraint, strata) in enumerate(boundary_searches()):
        label = (k, q, constraint.to_json_dict(), strata)
        mats = sd.compile_constraint(k, q, constraint)
        tests = grassmannian_pencil_count(k, q) * max(1, len(mats))
        work = len(mats) * sum(q ** len(sd._free_columns(k, i, j)[1]) for i, j in sd._cells(k))
        results, entries = [], []
        for side, cap in (("_plain_search", tests), ("_rank_search", tests - 1)):
            monkeypatch.setattr(sd, "_PLAIN_MAX_TESTS", cap)
            cache = tmp_path / f"{n}{side}"
            ran.clear()
            results.append(search_pencils_ffield(k, q, constraint, cache_dir=str(cache),
                                                 report_strata=strata))
            assert ran[:1] == ([side] if mats else []), (label, ran)
            entries.append([p.read_bytes() for p in cache.iterdir()])
            count = results[-1].count
            if work:
                with pytest.raises(ResourceLimit, match="counting by rank"):
                    search_pencils_ffield(k, q, constraint, budget=work - 1,
                                          report_strata=strata)
            if strata and count:
                with pytest.raises(ResourceLimit, match="the strata take"):
                    search_pencils_ffield(k, q, constraint, budget=work, report_strata=True)
        assert results[0] == results[1], label
        assert entries[0] == entries[1] and len(entries[0]) == 1, label


def test_small_count_forks_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was forked")

    F = Field(11)
    constraint = SearchConstraint(incidences=(sym_point(point(F, 1, 1), point(F, 1, 2)),))
    alone = search_pencils_ffield(3, 11, constraint, jobs=1)
    # k = 3 over F_7: 2850 pencils in the Grassmannian
    F7 = Field(7)
    small = SearchConstraint(incidences=(sym_point(point(F7, 1, 4), point(F7, 1, 3)),))
    strata_alone = search_pencils_ffield(3, 7, small, jobs=1, report_strata=True)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert search_pencils_ffield(3, 11, constraint, jobs=2) == alone
    assert search_pencils_ffield(3, 7, small, jobs=2, report_strata=True) == strata_alone
    monkeypatch.setattr(severi_degeneration, "_POOL_MIN_ROW_WORK", 0)
    with pytest.raises(AssertionError, match="a pool was forked"):
        search_pencils_ffield(3, 11, constraint, jobs=2)
    with pytest.raises(AssertionError, match="a pool was forked"):
        search_pencils_ffield(3, 7, small, jobs=2, report_strata=True)


def test_budget_counts_the_rank_work():
    F = Field(11)
    constraint = SearchConstraint(incidences=(sym_point(point(F, 1, 1), point(F, 1, 2)),))
    # k = 3: 11^2 + 11 + 1 + 11 + 1 + 1 g-rows, one condition; samples are solved for
    work = 121 + 2 * 11 + 3
    assert search_pencils_ffield(3, 11, constraint, budget=work).count > 0
    with pytest.raises(ResourceLimit):
        search_pencils_ffield(3, 11, constraint, budget=work - 1)
    # strata charge their smaller counts and their enumeration on top of that
    with pytest.raises(ResourceLimit):
        search_pencils_ffield(3, 11, constraint, budget=work, report_strata=True)


def strata_counts(monkeypatch):
    """The degree of every count that a search runs (_count), listed as they run."""
    sd = severi_degeneration
    ran, count = [], sd._count
    monkeypatch.setattr(sd, "_count", lambda q, k, *args: ran.append(k) or count(q, k, *args))
    return ran


def strata_figure(k, q, constraint, own):
    """The steps that the strata add before any smaller count runs, from their refusal."""
    with pytest.raises(ResourceLimit, match="the strata take at least") as refusal:
        search_pencils_ffield(k, q, constraint, budget=own, report_strata=True)
    return int(re.search(r"at least (\d+) steps", str(refusal.value)).group(1)) - own


def test_strata_charge_their_counts_to_the_budget(monkeypatch):
    """The strata add _STATE_STEPS for each count they might make, then each count's work.

    The first figure is added before any smaller count runs, so a budget of
    the search's own work refuses the strata with no count but its own; it
    bounds the counts made.  Each count at degree m < k adds its work (_work)
    before it runs: at the sum of all that the search answers, and one step
    short it is refused.  k = 4 over F_13 with two incidences and a
    ramification on one of them counts at degrees 2 and 3.
    """
    sd = severi_degeneration
    F = Field(13)
    a, b, c = point(F, 1, 2), point(F, 1, 5), point(F, 0, 1)
    constraint = SearchConstraint(incidences=(sym_point(a, b), sym_point(b, c)),
                                  ramifications=((a, 2),))
    charged, work = [], sd._work
    monkeypatch.setattr(sd, "_work", lambda k, q, mats: charged.append((k, work(k, q, mats)))
                        or charged[-1][1])
    ran = strata_counts(monkeypatch)
    want = search_pencils_ffield(4, 13, constraint, report_strata=True)
    (top, own), *counts = charged
    assert top == 4 and {m for m, _ in counts} == {2, 3} and ran[1:] == [m for m, _ in counts]
    ran.clear()
    figure = strata_figure(4, 13, constraint, own)
    assert ran == [4] and figure >= sd._STATE_STEPS * len(counts) > 0
    total = own + figure + sum(w for _, w in counts)
    assert search_pencils_ffield(4, 13, constraint, budget=total, report_strata=True) == want
    with pytest.raises(ResourceLimit, match="the strata take at least"):
        search_pencils_ffield(4, 13, constraint, budget=total - 1, report_strata=True)
    assert search_pencils_ffield(4, 13, constraint, budget=own).count == want.count


def test_strata_of_many_incidences_through_one_point_are_bounded(monkeypatch):
    """Sixteen incidences through one point: the figure bounds the counts, or refuses them.

    A pencil with a base point there meets them all, so no smaller count is
    zero, and the counts grow with the subsets of the 17 groups of points.
    At k = 4 and 5 the search answers, having made no more counts than its
    figure allows for; at k = 6 the figure alone takes it past the default
    budget, before any smaller count runs.
    """
    sd = severi_degeneration
    F = Field(17)
    pts = projective_points(F)
    constraint = SearchConstraint(incidences=tuple(sym_point(pts[0], p) for p in pts[1:17]))
    ran = strata_counts(monkeypatch)
    for k in (4, 5, 6):
        own = sd._work(k, 17, sd.compile_constraint(k, 17, constraint))
        figure = strata_figure(k, 17, constraint, own)
        ran.clear()
        if k < 6:
            res = search_pencils_ffield(k, 17, constraint, report_strata=True)
            assert sum(res.strata.values()) == res.count > 0
            assert 0 < sd._STATE_STEPS * (len(ran) - 1) <= figure, k
        else:
            assert own + figure > sd.DEFAULT_SEARCH_BUDGET
            with pytest.raises(ResourceLimit, match="the strata take at least"):
                search_pencils_ffield(k, 17, constraint, report_strata=True)
            assert ran == [6]


def test_int64_guard_refuses_before_searching(monkeypatch):
    q = 2**31 - 1  # prime; 3 (q-1)^2 >= 2^63, while 2 (q-1)^2 < 2^63
    F = Field(q)
    constraint = SearchConstraint(incidences=(sym_point(point(F, 1, 0), point(F, 1, 1)),))

    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(severi_degeneration, "compile_constraint", no_search)
    with pytest.raises(ResourceLimit, match="int64"):
        search_pencils_ffield(2, q, constraint, budget=10**30)
    with pytest.raises(AssertionError, match="the search started"):
        search_pencils_ffield(1, q, constraint, budget=10**30)


def eliminated_dtypes(monkeypatch):
    """The set that a spy on _eliminate fills with the dtype of every batch it eliminates."""
    sd = severi_degeneration
    dtypes = set()
    eliminate = sd._eliminate

    def spy(W, q, spare=None):
        dtypes.add(W.dtype)
        return eliminate(W, q, spare)

    monkeypatch.setattr(sd, "_eliminate", spy)
    return dtypes


# the ladder's incidence pairs (test_acceptance.INCIDENCE_PAIRS)
EDGE_PAIRS = (((1, 0), (1, 1)), ((1, -1), (1, 2)), ((1, 3), (0, 1)), ((1, 4), (1, -3)))


@pytest.mark.parametrize("k,q,incidences,dtype", [
    (2, 181, 1, np.int16), (2, 191, 1, np.int32), (3, 127, 2, np.int16),
    (3, 131, 2, np.int32), (4, 103, 4, np.int16), (4, 107, 4, np.int32),
    (4, 101, 4, np.int16)])
def test_kernel_dtype_on_both_sides_of_the_int16_rule(k, q, incidences, dtype, monkeypatch):
    """k = 2, 3, 4 at the last prime whose kernel bound fits int16, in int16, and the next in int32.

    The bound is max(1, k-1)(q-1)^2 + q - 1 < 2^15 (_kernel_dtype).  Also
    the k = 4 count over F_101 with four incidences.  Each search, and its
    strata, whose smaller counts take their own dtypes, equal a run forced
    into int64.
    """
    sd = severi_degeneration
    F = Field(q)
    constraint = SearchConstraint(incidences=tuple(
        sym_point(point(F, *a), point(F, *b)) for a, b in EDGE_PAIRS[:incidences]))
    dtypes = eliminated_dtypes(monkeypatch)
    res = search_pencils_ffield(k, q, constraint)
    assert dtypes == {np.dtype(dtype)}
    strata = search_pencils_ffield(k, q, constraint, report_strata=True).strata
    assert sum(strata.values()) == res.count > sd.SAMPLE_LIMIT
    monkeypatch.setattr(sd, "_kernel_dtype", lambda k, q: np.int64)
    dtypes.clear()
    assert search_pencils_ffield(k, q, constraint) == res
    assert search_pencils_ffield(k, q, constraint, report_strata=True).strata == strata
    assert dtypes == {np.dtype(np.int64)}


@pytest.mark.parametrize("q", [46337, 46349])
def test_kernel_dtype_on_both_sides_of_the_int32_rule(q, monkeypatch):
    """k = 2 at the last prime with (q-1)^2 + q - 1 < 2^31, in int32, and at the next, in int64.

    One incidence cuts the plane of k = 2 pencils in a line: q + 1 of them.
    The results equal those of a run forced into int64.
    """
    sd = severi_degeneration
    F = Field(q)
    xi = sym_point(point(F, 1, 2), point(F, 1, q - 3))
    constraint = SearchConstraint(incidences=(xi,))
    dtypes = eliminated_dtypes(monkeypatch)
    res = search_pencils_ffield(2, q, constraint)
    assert dtypes == {np.dtype(np.int32 if q == 46337 else np.int64)}
    assert res.count == q + 1
    assert len(res.samples) == sd.SAMPLE_LIMIT
    assert all(bezoutian_curve(pen).contains(xi) for pen in res.samples)
    monkeypatch.setattr(sd, "_kernel_dtype", lambda k, q: np.int64)
    dtypes.clear()
    assert search_pencils_ffield(2, q, constraint) == res
    assert dtypes == {np.dtype(np.int64)}


def test_k4_over_f101_is_prompt():
    # 1.07 * 10^12 pencils: far past the default budget if each were visited
    F = Field(101)
    xi = sym_point(point(F, 1, 0), point(F, 1, 1))
    start = time.perf_counter()
    res = search_pencils_ffield(4, 101, SearchConstraint(incidences=(xi,)))
    elapsed = time.perf_counter() - start
    assert res.count == 10720302409
    assert len(res.samples) == 20
    assert all(bezoutian_curve(pen).contains(xi) for pen in res.samples)
    assert elapsed < 20, elapsed


class TestDimensionEstimate:
    def test_two_prime_example(self):
        est = dimension_estimate([(5, 806), (7, 2850)])
        assert est.nearest == 4
        assert abs(est.raw - 3.7536) < 1e-3
        assert est.residual == est.raw - 4

    def test_exact_cubic_counts(self):
        est = dimension_estimate([(5, 125), (7, 343), (11, 1331)])
        assert est.nearest == 3
        assert abs(est.raw - 3.0) < 1e-12

    def test_rational_report(self):
        est = dimension_estimate([(5, 806), (7, 2850)])
        assert float(est.rational) == pytest.approx(est.raw, abs=1e-5)

    def test_same_prime_rejected(self):
        with pytest.raises(ValueError):
            dimension_estimate([(5, 10), (5, 20)])

    def test_zero_count(self):
        with pytest.raises(ZeroCount):
            dimension_estimate([(5, 806), (7, 0)])


class TestConicSections:
    def test_tangent_intersection_with_diagonal(self):
        # the rational normal curve picture: v^2 = uw meets the diagonal
        # conic v^2 = 4uw non-transversally
        curve = bezoutian_curve(
            Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [1, 0, 0, 0]))
        )
        rep = intersect_with_conic(curve, diagonal_conic(QQ))
        assert not rep.transversal
        assert not rep.squarefree

    def test_transversal_conic(self):
        curve = bezoutian_curve(
            Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [1, 0, 0, 0]))
        )
        conic = PlaneCurve.from_monomial_dict(
            QQ, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
        )
        rep = intersect_with_conic(curve, conic)
        assert rep.expected_degree == 4
        assert rep.degree == 4
        assert rep.homogeneous and rep.squarefree and rep.transversal
        assert rep.resultant.coeffs == tuple(QQ.coerce(c) for c in (1, 0, 1, 0, 1))

    def test_invariant_under_change_of_basis(self):
        # a change of basis scales the Bezoutian curve, so the section by the
        # diagonal conic keeps its degree and its transversality
        rng = random.Random(44)
        seen = set()
        for field in (QQ, Field(7), Field(101)):
            diag = diagonal_conic(field)
            for k in range(2, 7):
                for trial in range(6):
                    pen = random_pencil(field, k, rng)
                    if trial == 0 and k > 2:  # a double base point
                        square = linear_form(point(field, 1, rng.randint(0, 6)))
                        square = square.multiply(square)
                        pen = random_pencil(field, k - 2, rng)
                        pen = Pencil(pen.f.multiply(square), pen.g.multiply(square))
                    first = intersect_with_conic(bezoutian_curve(pen), diag)
                    second = intersect_with_conic(
                        bezoutian_curve(change_basis(pen, 2, 3, 1, 2)), diag
                    )
                    assert first.expected_degree == 2 * (k - 1)
                    assert (first.degree, first.transversal) == (
                        second.degree, second.transversal
                    )
                    seen.add(first.transversal)
        assert seen == {True, False}

    def test_degree_validation(self):
        curve = bezoutian_curve(
            Pencil(form(QQ, [0, 0, 0, 1]), form(QQ, [1, 0, 0, 0]))
        )
        line = PlaneCurve.from_monomial_dict(QQ, 1, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            intersect_with_conic(curve, line)
