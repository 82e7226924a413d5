"""Span recording for the traced benchmark mode.

The benchmark wraps every call it makes into a library layer in
``tracer.call(name, fn, *args)``.  The untraced mode uses :class:`NullTracer`,
whose ``call`` is a plain call, so end-to-end figures carry no recording cost.
The traced mode uses :class:`Tracer`: one span per call (name, start, end,
parent span, request id), kept in memory and written out after the run.
"""

from __future__ import annotations

import json
from time import perf_counter


class NullTracer:
    enabled = False
    request_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, n):
        pass

    def note_max(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, request id)
        self.counts: dict[str, int] = {}
        self.request_id = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request_id)

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def note_max(self, name, value):
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def reset_counts(self):
        self.counts = {}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")


def summarize(spans, first: int = 0, last: int | None = None) -> dict[str, dict]:
    """Per span name: call count, total time and self time over spans[first:last].

    Self time is a span's duration minus the time its direct children cover;
    spans nest strictly because the benchmark runs on one thread.
    """
    window = spans[first:last]
    child_time = [0.0] * len(window)
    for name, start, end, parent, _ in window:
        if parent >= first:
            child_time[parent - first] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _, _), inner in zip(window, child_time):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - inner
    return out
