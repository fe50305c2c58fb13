"""In-memory spans recorded from the benchmark's own files.

A span is ``[span_id, parent_id, name, start, end]`` on ``time.perf_counter``.
Spans are opened around calls into the program's public functions, either
with :meth:`Tracer.span` or by swapping a bound method for
:meth:`Tracer.wrap`; nothing inside the program changes.  All spans of one
workload run share one trace id, stay in memory while the run measures, and
are written out once it ends.

A span's *self time* is its duration minus the durations of its children.
The program is single-threaded, so children never overlap and the self times
of every span under a root add up exactly to the root's duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

_clock = time.perf_counter


class Tracer:
    """Records nested spans; one tracer per workload run."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._stack: list = [None]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [len(self.spans), self._stack[-1], name, _clock(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = _clock()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span around every call (the per-call hot path)."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1], name, _clock(), 0.0]
            spans.append(record)
            stack.append(record[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = _clock()

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one NDJSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for span_id, parent, name, start, end in self.spans:
                stream.write(json.dumps({
                    "trace": self.trace_id, "span": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def layer_table(spans: list[list], root: str) -> tuple[int, dict[str, dict[str, float]]]:
    """Per-root means of each span name's calls, total and self seconds.

    Returns ``(roots, {name: {"calls", "total_s", "self_s"}})`` over the
    trees whose root span is named ``root``; spans outside those trees are
    ignored.  The ``self_s`` values of one table sum to the root's
    ``total_s``.
    """
    child_time = [0.0] * len(spans)
    tree_of: list = [None] * len(spans)
    roots = 0
    for span_id, parent, name, start, end in spans:
        if parent is None:
            if name == root:
                tree_of[span_id] = span_id
                roots += 1
        else:
            child_time[parent] += end - start
            tree_of[span_id] = tree_of[parent]
    table: dict[str, dict[str, float]] = {}
    for span_id, _parent, name, start, end in spans:
        if tree_of[span_id] is None:
            continue
        row = table.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[span_id]
    if roots:
        for row in table.values():
            for key in row:
                row[key] /= roots
    return roots, table
