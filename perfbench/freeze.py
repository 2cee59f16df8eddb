"""Write perfbench/expected.json: the answers the benchmark checks against.

Run from the repository root at the commit whose answers are to be frozen:

    python3 perfbench/freeze.py

The values are frozen once, from a commit whose tests pass, and are then a
fixed reference.  Refreezing after a change would hide any answer the change
broke, so a later change that alters an answer on purpose must say so and
justify the new value.

Frozen here:
- stdout and exit code of every cold CLI invocation the cli_cold workload can
  make.  The five README examples must equal the README text.
- delta_zero(p, k) on a table of large p, for the combinatorics workload.
- the count of every search the ladder workload makes, for each of its
  LADDER_VARIANTS input variants (computed at jobs=1, while the workload runs
  the F_101 rungs at jobs=2), and the strata of its strata search.  Variant 0
  uses the acceptance test's INCIDENCE_PAIRS, whose counts must equal LADDERS.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pencillab import delta_zero, fields, severi_degeneration  # noqa: E402
import pencillab  # noqa: E402

from common import cli_command, cli_env, git_sha  # noqa: E402
from workloads import LADDER_VARIANTS, ladder_searches  # noqa: E402


def readme_examples() -> list[tuple[list[str], str]]:
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = fh.read().splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("$ pencillab "):
            out.append((line[len("$ pencillab "):].split(), lines[i + 1] + "\n"))
    return out


def variant_pools(rng: random.Random) -> dict[str, list[list[str]]]:
    """Equal-cost alternatives the seed chooses between, eight of each."""

    def coeffs(n):
        return ",".join(str(rng.randint(-9, 9)) for _ in range(n))

    reduced = []
    for i in range(8):
        if i % 2:
            # a shared x0^2 factor puts a double base point at [0:1]
            f, g = coeffs(3) + ",0,0", coeffs(3) + ",0,0"
        else:
            f, g = coeffs(5), coeffs(5)
        # "--f=..." keeps argparse from reading a leading minus sign as a flag
        reduced.append(["pencil", "reduced", f"--f={f}", f"--g={g}"])
    conic = [
        ["pencil", "conic-section", f"--f={coeffs(4)}", f"--g={coeffs(4)}"]
        for _ in range(8)
    ]
    delta0 = [
        ["severi", "delta0", "--p", str(20000 + 97 * i), "--k", "3"] for i in range(8)
    ]
    search = []
    for _ in range(8):
        u, v, w = (rng.randrange(7) for _ in range(3))
        search.append([
            "dimlab", "search", "--no-cache", "--k", "2", "--q", "7",
            "--incidence", f"{u},{v},{w or 1}",
        ])
    return {"reduced": reduced, "conic": conic, "delta0": delta0, "search": search}


def run_cli(argv: list[str], workdir: str) -> dict:
    proc = subprocess.run(
        cli_command(argv), cwd=workdir, env=cli_env(ROOT, workdir),
        capture_output=True, text=True, check=False,
    )
    return {"argv": argv, "stdout": proc.stdout, "exit": proc.returncode}


def ladder_answers(incidence_pairs, ladders: dict) -> tuple[list, list]:
    """Per variant, {label: count} over the ladder's searches, and the strata."""
    counts, strata = [], []
    for variant in range(LADDER_VARIANTS):
        found, variant_strata = {}, None
        for label, _, q, constraint, _, want_strata in ladder_searches(
                pencillab, fields, severi_degeneration, variant, incidence_pairs):
            res = severi_degeneration.search_pencils_ffield(
                3, q, constraint, jobs=1, report_strata=want_strata)
            found[label] = res.count
            if want_strata:
                variant_strata = res.strata
        if variant == 0:
            for q, ladder in ladders.items():
                for c, count in enumerate(ladder):
                    if found.get(f"F_{q} c={c}", count) != count:
                        raise SystemExit(f"F_{q} c={c} counts {found[f'F_{q} c={c}']}, "
                                         f"LADDERS says {count}")
        counts.append(found)
        strata.append(variant_strata)
        print(f"ladder variant {variant}: {found}", flush=True)
    return counts, strata


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="freeze-", dir=os.path.join(ROOT, "perfbench"))
    try:
        fixed = []
        for argv, text in readme_examples():
            entry = run_cli(argv, workdir)
            if entry["stdout"] != text:
                raise SystemExit(f"README example {argv} prints {entry['stdout']!r}")
            fixed.append(entry)
        for argv in (
            ["reproduce", "example-p345"],
            ["reproduce", "unique-pencil"],
            ["monodromy", "count", "--k", "5", "--e", "3,3,3,3"],
        ):
            fixed.append(run_cli(argv, workdir))
        pools = {
            name: [run_cli(argv, workdir) for argv in argvs]
            for name, argvs in variant_pools(random.Random(20261017)).items()
        }
    finally:
        shutil.rmtree(workdir)
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from test_acceptance import INCIDENCE_PAIRS, LADDERS

    table = [[p, k, delta_zero(p, k)] for p, k in
             ((300_000 + 1009 * i, 3 + i % 2) for i in range(16))]
    counts, strata = ladder_answers(INCIDENCE_PAIRS, LADDERS)
    doc = {
        "frozen_at": git_sha(ROOT),
        "cli": {"fixed": fixed, "pools": pools},
        "delta_zero": table,
        "ladder": {
            "incidence_pairs": INCIDENCE_PAIRS,
            "counts": counts,
            "strata": strata,
        },
    }
    with open(os.path.join(ROOT, "perfbench", "expected.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
