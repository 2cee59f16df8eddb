"""End-to-end command line checks: output shape, exit codes, determinism."""

import argparse
import ast
import json
import os
import random
import re
import shlex
import subprocess
import sys

import pytest

from pencillab.cli import _build_parser, main

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


SUBCOMMANDS = ("numerology", "monodromy", "pencil", "severi", "dimlab", "reproduce")


def _subparsers(parser) -> dict:
    """The parser's subcommands by name, or nothing if it has none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _parse(parser, argv, capsys):
    try:
        parser.parse_args(argv)
        code = 0
    except SystemExit as ex:
        code = ex.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_subtree_parses_as_the_full_tree(capsys):
    full = _build_parser()
    assert tuple(_subparsers(full)) == SUBCOMMANDS
    argvs = []
    for name, sub in _subparsers(full).items():
        argvs += [[name, "--help"], [name], [name, "--no-such-flag"]]
        for action in _subparsers(sub):
            argvs += [[name, action, "--help"], [name, action], [name, action, "--no-such-flag"]]
    argvs.append(["numerology", "--g", "4", "--k", "2", "unexpected"])  # the top-level usage
    assert len(argvs) == 3 * 6 + 3 * (5 + 9 + 5 + 3) + 1
    for argv in argvs:
        expected = _parse(full, argv, capsys)
        assert expected[0] in (0, 2) and expected[1] + expected[2], argv
        assert _parse(_build_parser(argv[0]), argv, capsys) == expected, argv


@pytest.mark.parametrize("argv", [[], ["nonsense"], ["--help"]])
def test_the_full_tree_lists_every_subcommand(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == (0 if argv == ["--help"] else 2)
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out + err


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


@pytest.mark.parametrize("cycles", [
    "[1]", "[[1,2],3]", "null", '"ab"', '[["1","2"]]', "[[1.5,2]]", "[[true,2]]", "{}",
])
def test_monodromy_verify_refuses_cycles_of_the_wrong_shape(cycles, capsys):
    doc = run_json(["monodromy", "verify", "--k", "3", "--cycles", cycles], capsys,
                   expect_code=1)
    assert doc["error"] == "value_error", cycles


def test_monodromy_verify_refuses_degree_zero(capsys):
    doc = run_json(["monodromy", "verify", "--k", "0", "--cycles", "[]"], capsys,
                   expect_code=1)
    assert doc["error"] == "value_error"


def test_monodromy_construct(capsys):
    doc = run_json(["monodromy", "construct", "--k", "3", "--e", "2,2,2,2"], capsys)
    assert doc["cycles"] == [[1, 2], [2, 3], [2, 3], [1, 2]]
    assert doc["verified"] is True
    assert doc["genus"] == 0


@pytest.mark.parametrize("k,code", [(500, 0), (501, 1)])
def test_monodromy_construct_caps_k(k, code, capsys):
    # _construct recurses once per symbol; MAX_CONSTRUCT_K keeps it far from
    # the recursion limit, which k = 1000 used to hit
    doc = run_json(["monodromy", "construct", "--k", str(k), "--e", f"{k},{k}"], capsys,
                   expect_code=code)
    if code:
        assert doc["error"] == "resource_limit"
    else:
        assert doc["verified"] is True and len(doc["cycles"]) == 2


def test_empty_table_renders_as_empty_csv(capsys):
    argv = ["severi", "alphas", "--p", "5", "--delta", "1", "--k", "2"]
    assert run_json(argv, capsys) == []
    # a table with no rows prints nothing, and the exit code is the handler's
    assert run(argv + ["--format", "csv"], capsys) == (0, "", "")


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


def test_monodromy_enumerate_limit(capsys):
    argv = ["monodromy", "enumerate", "--k", "3", "--e", "2,2,2,2"]
    doc = run_json(argv + ["--limit", "0"], capsys)
    assert (doc["count"], doc["tuples"], doc["truncated"]) == (24, [], True)
    doc = run_json(argv + ["--limit", "-1"], capsys, expect_code=1)
    assert doc["error"] == "value_error"
    assert "--limit" in doc["detail"]


def test_monodromy_guard_is_documented(capsys):
    for action in ("enumerate", "count"):
        doc = run_json(
            ["monodromy", action, "--k", "7", "--e", "2,2,2,2,2,2,2,2,2,2,2,2"],
            capsys, expect_code=1,
        )
        assert doc["error"] == "resource_limit", action
        doc = run_json(
            ["monodromy", action, "--k", "3", "--e", "2,2,2,2,2,2,2"], capsys, expect_code=1
        )
        assert doc["error"] == "resource_limit", action


def test_severi_descends_needs_both_second_generators(capsys):
    base = ["severi", "descends", "--f", "1,0,-1", "--g", "0,1,0", "--pairs", "1,1:1,-1"]
    doc = run_json(base + ["--f2", "1,0,0", "--g2", "0,0,1"], capsys)
    assert doc["non_neutral"] == [False]
    for half in (["--f2", "1,0,0"], ["--g2", "0,0,1"]):
        doc = run_json(base + half, capsys, expect_code=1)
        assert doc["error"] == "value_error", half
        assert "--f2 and --g2" in doc["detail"]
    assert run_json(base, capsys)["non_neutral"] is None


def test_search_jobs_must_be_positive(capsys):
    argv = ["dimlab", "search", "--k", "2", "--q", "7", "--incidence", "1,2,3", "--no-cache"]
    assert run_json(argv + ["--jobs", "1"], capsys)["count"] == 8
    for jobs in ("0", "-3"):
        doc = run_json(argv + ["--jobs", jobs], capsys, expect_code=1)
        assert doc == {"error": "value_error", "detail": "jobs must be at least 1"}, jobs


def test_search_budget_must_not_be_negative(capsys):
    argv = ["dimlab", "search", "--k", "2", "--q", "7", "--no-cache"]
    for command in (argv, ["reproduce", "unique-pencil", "--no-cache"]):
        doc = run_json(command + ["--budget", "-5"], capsys, expect_code=1)
        assert doc == {"error": "value_error", "detail": "budget must be at least 0"}, command
    # a budget of 0 is valid: with no conditions the count takes no steps
    assert run_json(argv + ["--budget", "0"], capsys)["count"] == 57


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


# Inputs that once hung or overflowed the stack: (argv, exit code, stdout
# check).  Each runs in its own process under a timeout, so a regression
# fails the suite instead of stalling it.
FORMER_HANGS = [
    (["severi", "exists", "--p", "300", "--delta", "150", "--k", "2"], 1,
     lambda doc: doc == {"exists": False}),
    (["severi", "exists", "--p", "3000", "--delta", "2990", "--k", "2"], 0,
     lambda doc: doc == {"exists": True}),
    (["severi", "alphas", "--p", "150", "--delta", "149", "--k", "2"], 0,
     lambda doc: len(doc) == 1),
    (["severi", "alphas", "--p", "1000", "--delta", "999", "--k", "2"], 0,
     lambda doc: len(doc) == 1),
    # one tuple of length 2970, walked from its longest chain (54), not from 2970
    (["severi", "alphas", "--p", "2970", "--delta", "2862", "--k", "2"], 0,
     lambda doc: len(doc) == 1 and doc[0]["genus"] == 108),
    # 21408078129 tuples: counted, then refused before any is listed
    (["severi", "alphas", "--p", "300", "--delta", "290", "--k", "2"], 1,
     lambda doc: doc["error"] == "resource_limit"),
    # four incidences leave no pencil; the budget counts g-rows, not the
    # 1991602626 pencils of the Grassmannian, and a count of 0 has empty
    # strata (exit 1: count 0)
    (["dimlab", "search", "--k", "3", "--q", "211", "--incidence", "1,2,3;4,5,6;7,8,10;2,9,5",
      "--strata", "--no-cache"], 1,
     lambda doc: doc["count"] == 0 and doc["strata"] == {}),
    # 9.5 * 10^6 g-rows x conditions fit the budget; about 211^7 matches once
    # took a classifier past it, and now their strata come from smaller counts
    (["dimlab", "search", "--k", "4", "--q", "211", "--incidence", "1,2,3",
      "--strata", "--no-cache"], 0,
     lambda doc: sum(doc["strata"].values()) == doc["count"] == 422210318049),
    # the Wronskian's roots over F_q: evaluated by Horner at all q + 1 points,
    # multiplicities taken at the roots only (once a Taylor shift per point)
    (["pencil", "wronskian", "--q", "100003", "--f", "1,2,3", "--g", "0,1,1"], 0,
     lambda doc: doc["degree"] == 2 and doc["roots"] == []),
    # 2^61 - 1 is prime: Miller-Rabin, not trial division up to its square root
    (["pencil", "bezoutian", "--q", "2305843009213693951", "--f", "1,0", "--g", "0,1"], 0,
     lambda doc: doc["field"] == {"q": 2305843009213693951} and doc["coeffs"] == ["1"]),
    # scanning all of F_(10^9 + 7) passes MAX_ROOT_SCAN_STEPS
    (["pencil", "wronskian", "--q", "1000000007", "--f", "1,0,5", "--g", "0,1,0"], 1,
     lambda doc: doc["error"] == "resource_limit"),
    # roots over Q lift from a scan mod a small prime; no coefficient is factored
    (["pencil", "wronskian", "--f", "963761198400,0,963761198400", "--g", "0,1,0"], 0,
     lambda doc: doc["roots"] == [{"point": ["1", "-1"], "multiplicity": 1},
                                  {"point": ["1", "1"], "multiplicity": 1}]),
    (["pencil", "wronskian", "--f", "1,0,100000000000000000039", "--g", "0,1,0"], 0,
     lambda doc: doc["degree"] == 2 and doc["roots"] == []),
    # a padded profile of 2 * 10^8 orders: refused past MAX_CONSTRUCT_K
    (["monodromy", "pad", "--k", "100000000", "--e", "2"], 1,
     lambda doc: doc["error"] == "resource_limit"),
    # each k-th power took k multiplications, k^2 operations; past MAX_TOTAL_RAM_K
    # the pencil is refused
    (["pencil", "total-ram", "--a", "1,0", "--b", "0,1", "--k", "100000"], 1,
     lambda doc: doc["error"] == "resource_limit"),
    # Permutation.identity's range overflowed, and 10^7 took 3.8 s; past MAX_TUPLE_K
    # the tuple is refused
    (["monodromy", "verify", "--k", "100000000000000000039", "--cycles", "[]"], 1,
     lambda doc: doc["error"] == "resource_limit"),
    (["monodromy", "verify", "--k", "10000000", "--cycles", "[]"], 1,
     lambda doc: doc["error"] == "resource_limit"),
    # a count of about 2.6 * 10^9 digits: refused by its digit count, before any arithmetic
    (["dimlab", "grassmannian", "--k", "4294967311", "--q", "2"], 1,
     lambda doc: doc["error"] == "resource_limit"),
]


@pytest.mark.parametrize("argv,code,check", FORMER_HANGS,
                         ids=[" ".join(argv[1:]) for argv, _, _ in FORMER_HANGS])
def test_former_hangs_return_promptly(argv, code, check, tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pencillab.cli", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == code, proc.stderr
    assert check(json.loads(proc.stdout))


# A seeded sample of the numeric-argument mutation: every literal argv list
# of this file and every frozen perfbench invocation, with one integer in one
# argument replaced by one of these values, from -1 and 0 past 2^64.
MUTATION_VALUES = (-1, 0, 1, 2, 3, 5, 13, 1000, 10**6, 2**31 - 1, 2**32 + 15, 10**20 + 39,
                   10**26)
MUTATION_SEED = "cli-mutation"
# cases replayed in this process, and mutations of FORMER_HANGS, replayed in
# one child process under a timeout; the two take about 2 s together
MUTATIONS_IN_PROCESS, MUTATIONS_OF_HANGS = 800, 24

# Runs each argv of the JSON list on stdin through cli.main, printing
# [exit code, stdout, stderr] per argv.
MUTATION_CHILD = """
import contextlib, io, json, sys
from pencillab.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def mutation_sample():
    """(in-process cases, cases from FORMER_HANGS), each a seeded sample of argv lists."""
    with open(__file__) as fh:
        tree = ast.parse(fh.read())
    argvs = [[e.value for e in node.elts] for node in ast.walk(tree)
             if isinstance(node, ast.List) and node.elts
             and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)]
    argvs += [entry["argv"] for entry in frozen_invocations()]
    hung = {tuple(argv) for argv, _, _ in FORMER_HANGS}
    cases = {False: [], True: []}
    for argv in dict.fromkeys(tuple(a) for a in argvs if a[0] in SUBCOMMANDS):
        for t, arg in enumerate(argv):
            for number in re.finditer(r"-?\d+", arg):
                for value in MUTATION_VALUES:
                    new = f"{arg[:number.start()]}{value}{arg[number.end():]}"
                    if new != arg:
                        cases[argv in hung].append([*argv[:t], new, *argv[t + 1:]])
    rng = random.Random(MUTATION_SEED)
    return (rng.sample(cases[False], MUTATIONS_IN_PROCESS),
            rng.sample(cases[True], MUTATIONS_OF_HANGS))


def assert_mutation_outcome(argv, code, out, err):
    """No traceback, exit 0, 1 or 2, and on exit 1 a JSON object: an error or a negative answer.

    The negative answers are those docs/schemas/cli.md lists with exit 1:
    `severi exists` false, no `severi delta0`, a search count of 0.
    """
    assert "Traceback" not in out + err, argv
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        doc = json.loads(out)
        assert isinstance(doc, dict), (argv, out)
        negative = (doc.get("exists") is False or doc.get("count") == 0
                    or "delta0" in doc and doc["delta0"] is None)
        assert "error" in doc or negative, (argv, out)


def test_mutated_numeric_arguments_are_answered_or_refused(capsys):
    in_process, _ = mutation_sample()
    for argv in in_process:
        assert_mutation_outcome(argv, *run(argv, capsys))


def test_mutated_former_hangs_are_answered_or_refused(tmp_path):
    _, of_hangs = mutation_sample()
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MUTATION_CHILD], input=json.dumps(of_hangs),
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    outcomes = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(outcomes) == len(of_hangs)
    for argv, outcome in zip(of_hangs, outcomes):
        assert_mutation_outcome(argv, *outcome)


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


def test_pencil_reduced_when_q_equals_k(capsys):
    # <x0^5, x1^5> over F_5 has no base point, but in characteristic 5 its
    # pair curve is (v^2 - 4uw)^2, so the base-locus law fails at q = k
    argv = ["pencil", "reduced", "--q", "5", "--f", "1,0,0,0,0,0", "--g", "0,0,0,0,0,1"]
    assert run(argv, capsys) == (0, '{"reduced": false}\n', "")


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unprintable_count_is_a_value_error(fmt, capsys):
    # the count has more digits than Python's int-to-str limit: the payload is
    # rendered before anything is written, so stdout holds the error alone
    doc = run_json(["dimlab", "grassmannian", "--k", "4000", "--q", "7", "--format", fmt],
                   capsys, expect_code=1)
    assert doc["error"] == "value_error"


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
    # an entry as a search with one match fewer would write it
    entry.write_text(json.dumps(dict(doc, count=doc["count"] - 1, samples=doc["samples"][:-1])))
    assert run_json(argv + ["--no-cache"], capsys) == first
    hit = run_json(argv, capsys)  # the entry is read without the flag
    assert hit == dict(first, count=first["count"] - 1, samples=first["samples"][:-1])


def test_cached_strata_do_not_leak_into_a_plain_search(capsys):
    argv = ["dimlab", "search", "--k", "2", "--q", "7", "--incidence", "4,3,5"]
    fresh = [run(argv + extra + ["--no-cache"], capsys) for extra in ([], ["--strata"])]
    assert json.loads(fresh[1][1])["strata"] == {"base_point_free": 8}
    # the strata run writes the entry that the plain run then hits
    assert run(argv + ["--strata"], capsys) == fresh[1]
    assert run(argv, capsys) == fresh[0]
    assert run(argv + ["--strata"], capsys) == fresh[1]


@pytest.mark.parametrize("doctor", [
    lambda doc: [doc],
    lambda doc: dict(doc, samples=[dict(doc["samples"][0], g={"degree": 2})]),
    lambda doc: dict(doc, count="lots"),
], ids=["not an object", "sample without coeffs", "count not a number"])
def test_malformed_cache_entry_prints_a_fresh_search(doctor, capsys, tmp_path):
    argv = ["dimlab", "search", "--k", "2", "--q", "5", "--incidence", "1,1,0"]
    fresh = run(argv + ["--no-cache"], capsys)
    assert run(argv, capsys) == fresh
    (entry,) = (tmp_path / "cache").glob("search-*.json")
    honest = json.loads(entry.read_text())
    entry.write_text(json.dumps(doctor(honest)))
    assert run(argv, capsys) == fresh
    assert json.loads(entry.read_text()) == honest


def test_empty_cache_variable_counts_as_unset(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PENCILLAB_CACHE", "")
    monkeypatch.chdir(tmp_path)
    argv = ["dimlab", "search", "--k", "2", "--q", "7", "--incidence", "5,0,1"]
    fresh = run(argv + ["--no-cache"], capsys)
    assert fresh[0] == 0
    assert run(argv, capsys) == fresh
    assert len(list((tmp_path / ".pencillab-cache").glob("search-*.json"))) == 1


def test_unwritable_cache_directory_is_an_error_object(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("PENCILLAB_CACHE", str(blocker / "cache"))
    code, out, err = run(["dimlab", "search", "--k", "2", "--q", "7", "--incidence", "5,0,1"],
                         capsys)
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["error"] == "not_a_directory_error", doc
    assert str(blocker) in doc["detail"]


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

    # k = 5 over F_211 has about 2*10^9 g-rows, so one incidence takes the
    # count past the budget before the search starts
    argv = ["dimlab", "search", "--k", "5", "--q", "211", "--incidence", "1,2,3", "--no-cache"]
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


def test_dimlab_estimate_rejects_composite_q(capsys):
    doc = run_json(["dimlab", "estimate", "--counts", "4:10,9:20"], capsys, expect_code=1)
    assert doc == {"error": "value_error", "detail": "modulus 4 is not prime"}
    doc = run_json(["dimlab", "estimate", "--counts", "5:806,9:20"], capsys, expect_code=1)
    assert doc == {"error": "value_error", "detail": "modulus 9 is not prime"}
    # 2 is prime: the pencils of conics over F_2 and F_5 fit the plane's dimension 2
    assert run_json(["dimlab", "estimate", "--counts", "2:7,5:31"], capsys)["nearest"] == 2


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
# standard modules that only some commands need: none of them needs the first two
LIGHT = ("dataclasses", "inspect", "hashlib", "csv")

# Run in a fresh interpreter: imports pencillab, then pencillab.cli, then runs
# each command in turn, and prints which HEAVY, THEMES and LIGHT modules are
# loaded after each of these steps.
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
""" % (HEAVY + THEMES + LIGHT,)


def probe_loads(tmp_path, commands):
    """Watched modules loaded after each IMPORT_PROBE step; loads only accumulate."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path, PENCILLAB_CACHE=str(tmp_path / "cache")),
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
    # 57 and 62 pencil tests run on plain ints; 2850 take the rank kernel
    small = ["dimlab", "search", "--no-cache", "--k", "2", "--q", "7", "--incidence", "5,0,1"]
    # its strata: a smaller count at k = 1 is a closed form
    small_strata = small + ["--strata"]
    unique = ["reproduce", "unique-pencil"]  # a cache miss: the cache starts empty
    # no conditions: 2850 pencils, all matching, counted by formula and walked for samples
    unconstrained = ["dimlab", "search", "--no-cache", "--k", "3", "--q", "7"]
    large = ["dimlab", "search", "--no-cache", "--k", "3", "--q", "7", "--incidence", "5,0,1"]
    steps = probe_loads(tmp_path, integer + [conic, small, small_strata, unique, unconstrained,
                                             large])
    assert list((tmp_path / "cache").glob("search-*.json")), "unique-pencil wrote no entry"
    # import pencillab, then import pencillab.cli: no theme module, nothing heavy or light
    assert steps[:2] == [set(), set()]
    # the integer commands need neither the pencil geometry nor the search code
    assert steps[1 + len(integer)] == {"pencillab.numerology", "pencillab.monodromy"}
    # the conic section needs the pencil geometry alone
    assert steps[2 + len(integer)] - steps[1 + len(integer)] == {"pencillab.pencil_geometry"}
    # a search that neither reads nor writes the cache hashes no key
    assert "hashlib" not in steps[3 + len(integer)]
    # loads accumulate: nothing heavy through the conic section, both small
    # searches, the small one's strata and the unconstrained one
    assert not steps[-2] & set(HEAVY)
    # a search this large runs in one process at the default --jobs
    assert steps[-1] & set(HEAVY) == {"numpy"}
    assert not steps[-1] & {"dataclasses", "csv"}

    # numpy loads inspect, but no search without the cache loads hashlib
    steps = probe_loads(tmp_path, [small, large])
    assert steps[-1] & {"hashlib", "pencillab.severi_degeneration"} == {
        "pencillab.severi_degeneration"}

    # csv is loaded to print CSV, and only then
    steps = probe_loads(tmp_path, [integer[0], integer[0] + ["--format", "csv"]])
    assert [step & set(LIGHT) for step in steps] == [set()] * 3 + [{"csv"}]

    # no frozen cli_cold invocation loads dataclasses or inspect
    steps = probe_loads(tmp_path, [entry["argv"] for entry in frozen_invocations()])
    assert not steps[-1] & {"dataclasses", "inspect"} and not steps[-1] & set(HEAVY)

    geometry = [
        ["pencil", "bezoutian", "--f", "0,1,0", "--g", "0,0,1"],
        ["pencil", "reduced", "--f", "1,2,3", "--g", "0,1,1"],  # reduced
        ["pencil", "reduced", "--f", "1,0,0,0", "--g", "0,1,0,0"],  # not reduced
        # not reduced over F_5, where a cubic's discriminants reach degree 6 >= q,
        # so their vanishing values are interpolated
        ["pencil", "reduced", "--q", "5", "--f", "0,0,0,0,1", "--g", "0,0,0,1,0"],
        conic,
    ]
    steps = probe_loads(tmp_path, geometry)
    assert steps[-1] == {"pencillab.pencil_geometry"}
