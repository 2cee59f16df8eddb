"""Reference jobs: how fast the shared machine is running at the moment.

The benchmark runs on a few cores of a shared host.  On the 2-vCPU VM that
measured perfbench/baseline.json, the host's speed drifted by a third or
more over tens of seconds, so two runs of the same code could differ by more
than a real change would.  Two reference jobs do the same kinds of work as
the workloads without touching pencillab:

- "spawn": a fresh `python -c pass`.  There, process start and page faults
  slowed down more than in-process arithmetic did, and they are most of a
  cold pencillab call and of a worker pool's start;
- "numpy": an in-process int64 kernel shaped like the search kernel's
  arithmetic (multiply, add, reduce mod q).

Both run right before every timed task.  The end-to-end times are
multiplied by `speed`, the geometric mean over the two jobs of
NOMINAL / median time in the run, so that they read as seconds at the speed
the machine had when NOMINAL was measured.  A change to pencillab cannot move
a reference time, so it moves the scaled figures as it moves the raw ones.
run.py reports the raw figures and the reference medians in its provenance
line.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# Median reference times, in seconds, over a 300 s trial on the 2-vCPU VM
# (Intel Xeon, Python 3.11, numpy 2.4) that measured perfbench/baseline.json.
# They fix the unit only: the parent and a change are scaled alike.
NOMINAL = {"spawn": 0.060, "numpy": 0.008}


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


def _numpy() -> None:
    import numpy as np  # here, so that importing this module costs nothing

    a = np.arange(1 << 16, dtype=np.int64)
    for _ in range(20):
        a = (a * 31 + 7) % 101


_JOBS = {"spawn": _spawn, "numpy": _numpy}


def reference_times() -> dict[str, float]:
    """Wall time of each reference job, run once."""
    times = {}
    for kind, job in _JOBS.items():
        start = time.perf_counter()
        job()
        times[kind] = time.perf_counter() - start
    return times


def speed(samples: list[dict[str, float]]) -> tuple[float, dict[str, float]]:
    """(scale factor for times, median time of each job) over `samples`."""
    medians = {kind: statistics.median(s[kind] for s in samples) for kind in NOMINAL}
    return math.prod(NOMINAL[k] / medians[k] for k in NOMINAL) ** (1 / len(NOMINAL)), medians
