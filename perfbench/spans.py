"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around each call it makes
into a pencillab module.  Each span keeps its name, start, end, parent span
and task id; nothing is written until the run ends.  A layer's self time is
its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    enabled = False
    task = None

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, task]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.task]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time in seconds), summed over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                # one thread records the spans, so siblings never overlap
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls, busy = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, busy + (end - start - covered))
        return totals

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "task")
        doc = {
            "spans": [dict(zip(keys, record)) for record in self.spans],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
