"""In-memory spans around the benchmark's own calls into each library layer.

A span is (name, start, end, parent, job).  The layer of a span is the part
of its name before the first dot (`mgf.read_mgf` belongs to `mgf`).  Spans sit
at the benchmark's call boundaries only, so a layer's self time includes the
lower layers that its public function calls internally.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _wall(start: float, end: float) -> float:
    return end - start


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, job]
        self._stack = []
        self.job = None

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.job]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, scale=_wall) -> list:
        """Per span: duration minus the time its direct children cover;
        scale(start, end) converts an interval to seconds."""
        dur = [scale(start, end) for _, start, end, _, _ in self.spans]
        own = list(dur)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= dur[i]
        return own

    def by_layer(self, jobs=None, scale=_wall) -> dict:
        """{layer: (self seconds, calls)} over spans of the given job ids."""
        out = defaultdict(lambda: [0.0, 0])
        for (name, _, _, _, job), own in zip(self.spans, self.self_times(scale)):
            if jobs is None or job in jobs:
                acc = out[name.split(".", 1)[0]]
                acc[0] += own
                acc[1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name: str, jobs=None, scale=_wall) -> list:
        return [scale(start, end) for n, start, end, _, job in self.spans
                if n == name and (jobs is None or job in jobs)]

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": n, "start_s": s - t0, "end_s": e - t0,
                 "parent": p, "job": j}
                for i, (n, s, e, p, j) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
