"""Spans, round timing and the statistics the benchmark report is built from.

Spans are recorded by the benchmark's own code around each public call into
omegalab: name, start, end, parent span and round id, plus a few counts.  They
are kept in memory and written out when the run ends.  With tracing off the
workloads get a ``NullTracer`` whose spans do nothing.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    round_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.round_id = 0

    @contextmanager
    def span(self, name: str, **counts):
        """Time the body as a span; the yielded dict takes counts known only
        after the call returns."""
        parent = self._open[-1] if self._open else None
        sp = Span(name, 0.0, 0.0, parent, self.round_id, dict(counts))
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp.counts
        finally:
            sp.end = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    enabled = False
    round_id = 0

    @contextmanager
    def span(self, name: str, **counts):
        yield {}


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover (children are merged first, so overlaps count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def span_records(spans: list[Span]) -> list[dict]:
    """The spans as JSON-ready dicts, with their self times."""
    return [
        {
            "id": i,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "self": own,
            "parent": s.parent,
            "round": s.round_id,
            "counts": s.counts,
        }
        for i, (s, own) in enumerate(zip(spans, self_times(spans)))
    ]


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, by
    the nearest-rank rule, and its value; None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)  # ceil(p * n / 100): p% of the samples lie at or below it
    return p, sorted(values)[rank - 1]


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] as statistics.quantiles gives them (one sample: itself)."""
    if not values:
        return []
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def fractions(attempted: int, decided: int, failed: int) -> tuple[float, float]:
    """(decided_frac, failed_frac); both use instances attempted as the base."""
    if attempted < 1:
        raise ValueError("no instance was attempted")
    return decided / attempted, failed / attempted
