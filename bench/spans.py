"""In-memory spans and self-time accounting for the traced run.

A span records one call into a package layer: its name, start and end,
the span it ran inside (``parent``) and the game it belongs to.  A
span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    game: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; ``span`` nests them by call order."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str, game=None):
        s = Span(len(self.spans), name, 0.0, 0.0,
                 self._open[-1] if self._open else None, game)
        self.spans.append(s)
        self._open.append(s.id)
        s.start = self._clock()
        try:
            yield s.id
        finally:
            s.end = self._clock()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class _NoTrace:
    def span(self, name, game=None):
        return contextlib.nullcontext()


NO_TRACE = _NoTrace()


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(s.start, s.end, children[s.id])
        for s in spans
    }


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span]) -> dict[str, NameTotals]:
    """Calls, total duration and total self time per span name."""
    selfs = self_times(spans)
    out: dict[str, NameTotals] = defaultdict(NameTotals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.total_s += s.duration
        t.self_s += selfs[s.id]
    return out

