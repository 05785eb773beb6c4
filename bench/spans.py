"""In-memory spans and counters for the benchmark, plus the statistics
rules its metrics use.  Standard library only.

A span is recorded by the benchmark around each call it makes into one of
latmod's layers, and around each job.  Spans are kept in memory and written
out once, at the end of a run.  When a Tracer is disabled, `span` returns a
shared no-op context and `add` returns at once, so an untraced run pays for
neither.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext

TAIL_BEYOND = 10
_OFF = nullcontext()


class Span:
    __slots__ = ("name", "start", "end", "parent", "job")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans (name, start, end, parent index, job id), named counters that
    add up, and named maxima."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.adds = 0
        self._stack: list[int] = []

    def span(self, name: str, job=None):
        if not self.enabled:
            return _OFF
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = self.spans[parent].job
        sp = Span(name, time.perf_counter(), parent, job)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return _Open(self, sp)

    def add(self, name: str, value: float = 1):
        if self.enabled:
            self.adds += 1
            self.counts[name] += value

    def peak(self, name: str, value: float):
        if self.enabled:
            self.adds += 1
            self.maxima[name] = max(value, self.maxima.get(name, value))

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append(sp)
        return [span_self_time(sp, children.get(i, ())) for i, sp in enumerate(self.spans)]

    def dump(self) -> list:
        return [[sp.name, sp.start, sp.end, sp.parent, sp.job] for sp in self.spans]


def tracer_cost(spans: int, adds: int) -> float:
    """Seconds a tracer spends recording `spans` spans and `adds` counter
    updates, measured by replaying them on a scratch tracer."""
    scratch = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(spans):
        with scratch.span("replay"):
            pass
    for _ in range(adds):
        scratch.add("replay")
    return time.perf_counter() - t0


def span_self_time(span: Span, children) -> float:
    """Duration of `span` minus the union of its children's intervals,
    each clipped to the span."""
    covered = 0.0
    reach = span.start
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def tail_percentile(n: int, beyond: int = TAIL_BEYOND):
    """The highest percentile, in tenths, with at least `beyond` of `n`
    samples above it, as (percentile, 1-based rank of its sample).  With
    `beyond` samples or fewer no percentile qualifies; the maximum is then
    the tail, reported as the 100th percentile."""
    if n <= beyond:
        return 100.0, n
    tenths = 1000 * (n - beyond) // n
    rank = -(-tenths * n // 1000)
    return tenths / 10, rank


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the tail rule over `values`."""
    ordered = sorted(values)
    pct, rank = tail_percentile(len(ordered))
    return pct, ordered[rank - 1]
