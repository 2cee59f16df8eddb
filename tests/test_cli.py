"""End-to-end command line checks: output shape, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys

import pytest

from pencillab.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
FROZEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected.json")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    # keeps cache-writing commands (reproduce, dimlab search) out of the cwd
    monkeypatch.setenv("PENCILLAB_CACHE", str(tmp_path / "cache"))


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as ex:  # argparse usage errors
        code = ex.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys, expect_code=0):
    code, out, err = run(argv, capsys)
    assert code == expect_code, (out, err)
    return json.loads(out)


def test_numerology_report(capsys):
    doc = run_json(["numerology", "--g", "4", "--k", "2", "--e", "2,2"], capsys)
    assert doc["rho_tilde"] == -4
    assert doc["codim"] == 4
    assert doc["verdict"] == "GenericallyFinite"


def test_numerology_csv(capsys):
    code, out, _ = run(
        ["numerology", "--g", "4", "--k", "2", "--e", "2,2", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "codim"
    assert lines[1].split(",")[0] == "4"


def test_numerology_infeasible_is_machine_readable(capsys):
    doc = run_json(
        ["numerology", "--g", "0", "--k", "2", "--e", "2,2,2"], capsys, expect_code=1
    )
    assert doc["error"] == "riemann_hurwitz_violation"
    assert "detail" in doc


def test_usage_error_exit_code(capsys):
    code, _, err = run(["numerology"], capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(["numerology", "--g", "1", "--k", "2", "--wat", "3"], capsys)
    assert code == 2


def test_seed_flag_is_gone(capsys):
    code, _, err = run(["numerology", "--g", "4", "--k", "2", "--seed", "1"], capsys)
    assert code == 2
    assert "--seed" in err


def test_value_rejected_by_pencillab_exits_one(capsys):
    # argparse accepts the string; parsing it as orders fails
    doc = run_json(["numerology", "--g", "4", "--k", "2", "--e", "2,x"], capsys,
                   expect_code=1)
    assert doc["error"] == "value_error"


def test_error_names_keep_acronyms_whole(capsys):
    doc = run_json(["monodromy", "verify", "--k", "3", "--cycles", "[1,2"], capsys,
                   expect_code=1)
    assert doc["error"] == "json_decode_error"


def test_monodromy_construct(capsys):
    doc = run_json(["monodromy", "construct", "--k", "3", "--e", "2,2,2,2"], capsys)
    assert doc["cycles"] == [[1, 2], [2, 3], [2, 3], [1, 2]]
    assert doc["verified"] is True
    assert doc["genus"] == 0


def test_monodromy_nested_payload_refuses_csv(capsys):
    code, _, err = run(
        ["monodromy", "construct", "--k", "3", "--e", "2,2,2,2", "--format", "csv"],
        capsys,
    )
    assert code == 2
    assert "csv" in err.lower()


def test_monodromy_enumerate_count(capsys):
    doc = run_json(["monodromy", "count", "--k", "3", "--e", "3,3"], capsys)
    assert doc["count"] == 2


def test_monodromy_infeasible(capsys):
    doc = run_json(
        ["monodromy", "construct", "--k", "3", "--e", "2,2"], capsys, expect_code=1
    )
    assert doc["error"] == "profile_infeasible"


def test_severi_exists_false_exit_one(capsys):
    doc = run_json(
        ["severi", "exists", "--p", "5", "--delta", "1", "--k", "2"], capsys, expect_code=1
    )
    assert doc == {"exists": False}


def test_severi_exists_true(capsys):
    doc = run_json(["severi", "exists", "--p", "5", "--delta", "2", "--k", "2"], capsys)
    assert doc == {"exists": True}


def test_severi_alpha_listing(capsys):
    doc = run_json(["severi", "alphas", "--p", "5", "--delta", "2", "--k", "2"], capsys)
    assert [row["alphas"] for row in doc] == [[1, 2, 0, 0, 0], [2, 0, 1, 0, 0]]
    assert all(row["genus"] == 3 for row in doc)


def test_severi_delta0(capsys):
    doc = run_json(["severi", "delta0", "--p", "5", "--k", "2"], capsys)
    assert doc == {"delta0": 2, "k": 2, "p": 5}


def test_pencil_sym_point(capsys):
    doc = run_json(["pencil", "sym-point", "--P", "1,2", "--Q", "1,2/3"], capsys)
    assert doc == {"coords": ["1", "8/3", "4/3"], "on_diagonal": False}


def test_pencil_bezoutian(capsys):
    doc = run_json(["pencil", "bezoutian", "--f", "0,0,1", "--g", "1,-2,1"], capsys)
    assert doc["degree"] == 1
    assert doc["coeffs"] == ["0", "1", "-2"]


def test_pencil_bezoutian_finite_field(capsys):
    doc = run_json(
        ["pencil", "bezoutian", "--f", "0,0,1", "--g", "1,-2,1", "--q", "7"], capsys
    )
    assert doc["field"] == {"q": 7}
    assert doc["coeffs"] == ["0", "1", "5"]


def test_pencil_same_fiber(capsys):
    doc = run_json(
        ["pencil", "same-fiber", "--f", "0,0,1", "--g", "1,-2,1",
         "--P", "1,2", "--Q", "1,2/3"],
        capsys,
    )
    assert doc["same_fiber"] is True


def test_pencil_degenerate_error(capsys):
    doc = run_json(
        ["pencil", "bezoutian", "--f", "1,2,3", "--g", "2,4,6"], capsys, expect_code=1
    )
    assert doc["error"] == "degenerate_pencil"


def test_dimlab_grassmannian(capsys):
    doc = run_json(["dimlab", "grassmannian", "--k", "2", "--q", "5"], capsys)
    assert doc == {"count": 31, "k": 2, "q": 5}


def test_dimlab_grassmannian_rejects_composite_q(capsys):
    doc = run_json(["dimlab", "grassmannian", "--k", "2", "--q", "4"], capsys, expect_code=1)
    assert doc == {"error": "value_error", "detail": "modulus 4 is not prime"}
    # the count needs no conic, so characteristic 2 keeps its answer
    doc = run_json(["dimlab", "grassmannian", "--k", "2", "--q", "2"], capsys)
    assert doc == {"count": 7, "k": 2, "q": 2}


def test_dimlab_search_incidence(capsys):
    doc = run_json(
        ["dimlab", "search", "--k", "2", "--q", "5", "--incidence", "1,1,0",
         "--no-cache"],
        capsys,
    )
    assert doc["count"] == 6
    assert len(doc["samples"]) == 6


def test_no_cache_neither_reads_nor_writes(capsys, tmp_path):
    argv = ["dimlab", "search", "--k", "2", "--q", "5", "--incidence", "1,1,0"]
    first = run_json(argv + ["--no-cache"], capsys)
    assert not (tmp_path / "cache").exists()
    assert run_json(argv, capsys) == first
    (entry,) = (tmp_path / "cache").glob("search-*.json")
    doc = json.loads(entry.read_text())
    entry.write_text(json.dumps(dict(doc, samples=[])))
    assert run_json(argv + ["--no-cache"], capsys) == first
    assert run_json(argv, capsys)["samples"] == []  # the entry is read without the flag


def test_cached_strata_do_not_leak_into_a_plain_search(capsys):
    argv = ["dimlab", "search", "--k", "2", "--q", "7", "--incidence", "4,3,5"]
    fresh = [run(argv + extra + ["--no-cache"], capsys) for extra in ([], ["--strata"])]
    assert json.loads(fresh[1][1])["strata"] == {"base_point_free": 8}
    # the strata run writes the entry that the plain run then hits
    assert run(argv + ["--strata"], capsys) == fresh[1]
    assert run(argv, capsys) == fresh[0]
    assert run(argv + ["--strata"], capsys) == fresh[1]


def test_dimlab_search_empty_result_exit_one(capsys):
    doc = run_json(
        ["dimlab", "search", "--k", "2", "--q", "5",
         "--incidence", "1,1,0;1,1,3;0,1,4", "--no-cache"],
        capsys,
        expect_code=1,
    )
    assert doc["count"] == 0


def test_omitted_budget_is_the_search_default(capsys):
    from pencillab.severi_degeneration import DEFAULT_SEARCH_BUDGET

    # the strata budget of the k=3 Grassmannian over F_211 is about 2*10^9 pencils
    argv = ["dimlab", "search", "--k", "3", "--q", "211", "--strata", "--no-cache"]
    doc = run_json(argv, capsys, expect_code=1)
    assert doc["error"] == "resource_limit"
    assert doc["detail"].endswith(f"over the budget of {DEFAULT_SEARCH_BUDGET}")
    doc = run_json(argv + ["--budget", "1000"], capsys, expect_code=1)
    assert doc["detail"].endswith("over the budget of 1000")
    code, out, _ = run(["dimlab", "search", "--help"], capsys)
    assert code == 0
    assert "--budget" in out


def test_reproduce_search_honours_budget(capsys):
    doc = run_json(["reproduce", "unique-pencil", "--no-cache", "--budget", "3"],
                   capsys, expect_code=1)
    assert doc["error"] == "resource_limit"


def test_dimlab_estimate(capsys):
    doc = run_json(["dimlab", "estimate", "--counts", "5:806,7:2850"], capsys)
    assert doc["nearest"] == 4
    assert doc["raw"] == pytest.approx(3.7536, abs=1e-3)


def test_reproduce_example_table(capsys):
    doc = run_json(["reproduce", "example-p345"], capsys)
    assert doc == [
        {"delta0": 1, "k": 2, "p": 3},
        {"delta0": 1, "k": 2, "p": 4},
        {"delta0": 2, "k": 2, "p": 5},
        {"delta0": 1, "k": 3, "p": 5},
    ]


def test_reproduce_unique_pencil(capsys):
    doc = run_json(["reproduce", "unique-pencil"], capsys)
    assert doc["count"] == 1
    assert doc["samples"][0]["f"]["coeffs"] == ["1", "0", "0"]
    assert doc["samples"][0]["g"]["coeffs"] == ["0", "0", "1"]


def test_output_byte_stable(capsys):
    args = ["numerology", "--g", "3", "--k", "4", "--e", "3,2"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def readme_examples():
    """(argv, stdout) of each `$ pencillab ...` line in README.md and the line after it."""
    with open(README) as fh:
        lines = fh.read().splitlines()
    return [
        (shlex.split(line[len("$ pencillab "):]), lines[i + 1] + "\n")
        for i, line in enumerate(lines)
        if line.startswith("$ pencillab ")
    ]


def test_readme_examples_match_the_cli(capsys):
    examples = readme_examples()
    assert len(examples) >= 5
    for argv, expected in examples:
        _, out, _ = run(argv, capsys)
        assert out == expected, argv


def frozen_invocations():
    """The CLI invocations frozen in perfbench/expected.json: dicts of argv, exit, stdout."""
    with open(FROZEN) as fh:
        cli = json.load(fh)["cli"]
    return cli["fixed"] + [entry for pool in cli["pools"].values() for entry in pool]


def test_frozen_invocations_replay_byte_identical(capsys):
    entries = frozen_invocations()
    assert len(entries) == 40
    # the second pass reads the cache entries the first one wrote
    for attempt in ("cold cache", "warm cache"):
        for entry in entries:
            code, out, _ = run(entry["argv"], capsys)
            assert (code, out) == (entry["exit"], entry["stdout"]), (attempt, entry["argv"])


HEAVY = ("numpy", "sympy", "concurrent.futures.process")
THEMES = tuple(
    f"pencillab.{m}"
    for m in ("numerology", "monodromy", "pencil_geometry", "severi_degeneration")
)

# Run in a fresh interpreter: imports pencillab, then pencillab.cli, then runs
# each command in turn, and prints which HEAVY and THEMES modules are loaded
# after each of these steps.
IMPORT_PROBE = """
import contextlib, io, json, sys
watched = %r
def loaded():
    return [m for m in watched if m in sys.modules]
import pencillab
steps = [loaded()]
import pencillab.cli
steps.append(loaded())
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        pencillab.cli.main(argv)
    steps.append(loaded())
print(json.dumps(steps))
""" % (HEAVY + THEMES,)


def probe_loads(tmp_path, commands):
    """Watched modules loaded after each IMPORT_PROBE step; loads only accumulate."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    return [set(step) for step in json.loads(proc.stdout)]


def test_heavy_modules_load_only_where_used(tmp_path):
    integer = [
        ["numerology", "--g", "4", "--k", "2", "--e", "2,2"],
        ["monodromy", "construct", "--k", "3", "--e", "3,3"],
        ["monodromy", "count", "--k", "5", "--e", "3,3,3,3"],
        ["severi", "exists", "--p", "5", "--delta", "1", "--k", "2"],
        ["severi", "alphas", "--p", "5", "--delta", "2", "--k", "2"],
        ["severi", "delta0", "--p", "20000", "--k", "3"],
        ["dimlab", "grassmannian", "--k", "2", "--q", "5"],
        ["reproduce", "example-p345"],
    ]
    conic = ["pencil", "conic-section", "--f", "1,2,3", "--g", "0,1,1"]
    search = ["dimlab", "search", "--no-cache", "--k", "2", "--q", "7", "--incidence", "5,0,1"]
    steps = probe_loads(tmp_path, integer + [conic, search])
    # import pencillab, then import pencillab.cli: no theme module, nothing heavy
    assert steps[:2] == [set(), set()]
    # the integer commands need neither the pencil geometry nor the search code
    assert steps[1 + len(integer)] == {"pencillab.numerology", "pencillab.monodromy"}
    assert not steps[-2] & set(HEAVY)
    # a search this small runs in one process at the default --jobs
    assert steps[-1] & set(HEAVY) == {"numpy"}

    geometry = [
        ["pencil", "bezoutian", "--f", "0,1,0", "--g", "0,0,1"],
        ["pencil", "reduced", "--f", "1,2,3", "--g", "0,1,1"],  # reduced
        ["pencil", "reduced", "--f", "1,0,0,0", "--g", "0,1,0,0"],  # not reduced
        # F_5 has too few points for the w-scan: the small-field fallback
        ["pencil", "reduced", "--q", "5", "--f", "0,0,0,1", "--g", "0,0,1,0"],
    ]
    steps = probe_loads(tmp_path, geometry)
    assert steps[-1] == {"pencillab.pencil_geometry"}
