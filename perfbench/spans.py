"""Outside-in span tracing and the summary statistics the benchmark reports.

A `Tracer` swaps a timing wrapper onto a module attribute that callers look
up at call time, records one span per call (name, start, end, parent) in
memory, and puts the original attribute back when the traced block ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self._clock(), float("nan"), parent)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, annotate: Optional[Callable] = None) -> Callable:
        """`fn` inside a span; `annotate(args, kwargs, result)` adds span attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    record.attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Wrap each (module, attribute, span name, annotate) for the block.

        The originals are restored on exit, also when the block raises, so
        code run afterwards is the unwrapped program.
        """
        saved = []
        try:
            for module, attr, name, annotate in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it; the maximum
    when there are fewer than eleven samples."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def summarize(values: list[float]) -> dict:
    n = len(values)
    return {"median": statistics.median(values), "tail": tail(values), "n": n,
            "tail_rule": f"p{100 * (n - 10) / n:.0f}" if n >= 11 else "max"}
