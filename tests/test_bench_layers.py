"""tools/bench_layers.py runs: one repeat of a few cases, each run in its own process."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "tools", "bench_layers.py")


def test_bench_layers_prints_its_medians(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--only", "Field.coerce"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["nproc"] >= 1 and doc["repeats"] == 1
    assert doc["ms"] == {}
    (label, value), = doc["us_per_call"].items()
    assert label.startswith("Field.coerce") and value > 0


def test_bench_layers_times_the_frozen_geometry_pencils(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--only", "8 cli"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert sorted(doc["ms"]) == ["intersect_with_conic, 8 cli conic pencils",
                                 "is_reduced_curve, 8 cli reduced pencils"]
    assert all(value > 0 for value in doc["ms"].values())


def test_bench_layers_times_cold_searches_on_both_paths(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--only", "cold dimlab search"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert sorted(doc["ms"]) == ["cold dimlab search k=2 F_7, 57 tests, --strata",
                                 "cold dimlab search k=2 F_7, 57 tests, plain ints",
                                 "cold dimlab search k=3 F_7, 2850 tests, rank kernel",
                                 "cold dimlab search k=3 F_7, no conditions"]
    assert all(value > 0 for value in doc["ms"].values())


def test_bench_layers_times_cold_loads_by_module_group(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--only", "cold load"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert sorted(doc["ms"]) == ["cold load numerology", "cold load pencil conic-section",
                                 "cold load pencil reduced",
                                 "cold load reproduce unique-pencil, cache hit"]
    assert all(value > 0 for value in doc["ms"].values())
    assert os.listdir(tmp_path) == []  # the primed cache lived in a temporary directory


def test_bench_layers_times_int64_systems(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--only", "_systems"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (label, value), = doc["ms"].items()
    assert label == "_systems k=2 F_100003 100005 g-rows int64" and value > 0


def test_bench_layers_times_the_strata_ranks(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--only", "_strata_codes"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (label, value), = doc["ms"].items()
    assert label == "_strata_codes k=3 F_13 2549 matches" and value > 0


def test_bench_layers_times_a_small_search_around_its_rank_pass(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--only", "small search"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert sorted(doc["ms"]) == ["small search: F_31 c=2 dense walk",
                                 "small search: F_31 c=2 with a fresh cache"]
    assert all(value > 0 for value in doc["ms"].values())
    assert os.listdir(tmp_path) == []  # the cache directories were temporary


def test_bench_layers_times_the_cache_and_a_warm_ladder(tmp_path):
    labels = {}
    for only in ("cache", "layout warm"):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--repeats", "1", "--only", only],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        labels.update(json.loads(proc.stdout)["ms"])
    for label in ("cache write, 20 samples", "cache hit", "ladder searches, layout warm"):
        assert labels[label] > 0, label
    assert os.listdir(tmp_path) == []  # the cache directories were temporary


def test_bench_layers_times_eliminate_in_int32_and_int16(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--only", "_eliminate"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert sorted(doc["ms"]) == [f"_eliminate F_101 {rows}x4x3 {dtype}"
                                 for rows in (2048, 8192) for dtype in ("int16", "int32")]
    assert all(value > 0 for value in doc["ms"].values())
