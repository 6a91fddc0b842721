"""Spans recorded around calls into nightseg, and their self-time arithmetic.

A span is one call of a traced callable: its name, start and end on the
``perf_counter`` clock, the span that was open when it started (its
parent), the operation it belongs to (training step, evaluated sample or
prepared image) and the length of the active gradient tape at entry and
exit. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

__all__ = ["Span", "Tracer", "self_times", "self_nodes", "union_length"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index of the enclosing span, -1 at top level
    op: int = -1              # ordinal of the step/sample/image event, -1 before the first
    phase: str = "run"        # "setup" or "run"
    tape0: int | None = None  # active tape length at entry (None: no tape)
    tape1: int | None = None  # active tape length at exit
    value: float | None = None  # per-call quantity, e.g. bytes written

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def nodes(self) -> int | None:
        """Tape nodes recorded during the span; None if no tape was active
        throughout or the tape was consumed (backward) inside it."""
        if self.tape0 is None or self.tape1 is None or self.tape1 < self.tape0:
            return None
        return self.tape1 - self.tape0


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its children."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        clipped = ((max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids[i])
        out.append(s.duration - union_length(clipped))
    return out


def self_nodes(spans: list[Span]) -> list[int | None]:
    """Tape nodes each span recorded itself, outside its children."""
    kids = _children(spans)
    out: list[int | None] = []
    for i, s in enumerate(spans):
        n = s.nodes
        if n is not None:
            n -= sum(spans[c].nodes or 0 for c in kids[i])
        out.append(n)
    return out


class Tracer:
    """Collects spans from wrapped callables.

    ``tape_len`` reports the active tape length (or None); ``op_markers``
    names the spans whose entry starts a new operation.
    """

    def __init__(self, tape_len: Callable[[], int | None] = lambda: None,
                 op_markers: Iterable[str] = ()):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []
        self._tape_len = tape_len
        self._op_markers = frozenset(op_markers)

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """A function that calls ``fn`` inside a span named ``name``.

        ``measure(args, result)`` gives the span's ``value`` when set.
        """
        def traced(*args, **kwargs):
            if name in self._op_markers:
                self.op += 1
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                        op=self.op, phase=self.phase, tape0=self._tape_len())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.tape1 = self._tape_len()
            if measure is not None:
                span.value = float(measure(args, result))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
