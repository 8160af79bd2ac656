"""In-memory span recorder for the traced run.

A span is ``[id, name, start, end, parent, op]`` with times from
``time.perf_counter``.  Spans opened on one thread nest through a
per-thread stack, so a child always names the span that caused it and
inherits its operation id.  Nothing is written until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

__all__ = ["NullTracer", "Tracer", "self_times", "nesting_errors"]

ID, NAME, START, END, PARENT, OP = range(6)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """The untraced run's tracer: ``span`` costs one attribute lookup."""

    enabled = False
    _SPAN = _NullSpan()

    def span(self, name: str, op: int | None = None) -> _NullSpan:
        return self._SPAN


class _OpenSpan:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, op: int | None) -> None:
        self.tracer = tracer
        self.record = [next(tracer._ids), name, 0.0, 0.0, None, op]

    def __enter__(self):
        stack = self.tracer._stack()
        record = self.record
        if stack:
            parent = stack[-1]
            record[PARENT] = parent[ID]
            if record[OP] is None:
                record[OP] = parent[OP]
        stack.append(record)
        record[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        record = self.record
        record[END] = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(record)
        return False


class Tracer:
    """Records nested spans; safe to use from several threads."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: int | None = None) -> _OpenSpan:
        return _OpenSpan(self, name, op)

    def to_json(self) -> list[dict]:
        return [
            {"id": s[ID], "name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "op": s[OP]}
            for s in sorted(self.spans, key=lambda s: s[ID])
        ]


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return {s[ID]: (s[END] - s[START]) - covered[s[ID]] for s in spans}


def nesting_errors(spans: list[list]) -> list[str]:
    """Violations of "child inside parent, self time >= 0" (empty = sound)."""
    by_id = {s[ID]: s for s in spans}
    errors = []
    for s in spans:
        if s[END] < s[START]:
            errors.append(f"span {s[ID]} {s[NAME]} ends before it starts")
        parent = by_id.get(s[PARENT]) if s[PARENT] is not None else None
        if s[PARENT] is not None and parent is None:
            errors.append(f"span {s[ID]} {s[NAME]} names a missing parent")
        elif parent is not None and not (
                parent[START] <= s[START] and s[END] <= parent[END]):
            errors.append(f"span {s[ID]} {s[NAME]} leaves its parent's interval")
    for span_id, own in self_times(spans).items():
        if own < -1e-9:
            errors.append(f"span {span_id} has negative self time {own}")
    return errors
