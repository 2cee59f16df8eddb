"""Paths, child-process plumbing and run provenance shared by the benchmark."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# The same entry point the installed `pencillab` script runs.
_ENTRY = "from pencillab.cli import entry; entry()"


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", _ENTRY, *argv]


def cli_env(root: str, workdir: str, cache_dir: str | None = None) -> dict:
    """Environment for a cold pencillab process confined to workdir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PENCILLAB_CACHE"] = cache_dir or os.path.join(workdir, "cache")
    return env


def git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(
        ["git", "-C", root, "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() or None


def source_digest(src: str) -> str:
    """sha256 over the package sources, which identifies a build without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "pencillab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def provenance(workload: str, seed: int, load_at_start: tuple) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
    }
