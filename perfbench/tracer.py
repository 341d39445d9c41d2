"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of the package from outside it: it
replaces a module function or class method with a wrapper for the duration of
a `with installed(...)` block and restores the original in `finally`.  Each
wrapped call records one span (name, start, end, parent) in memory; nothing is
written until the benchmark ends.  A span's self time is its duration minus
the durations of its direct children.

An entry point that no longer exists fails loudly when the wrappers are
installed, and `Tracer.require` fails loudly for one that exists but was never
called, so a refactor can not turn a layer's time into a silent zero.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


class TracerError(RuntimeError):
    """An entry point to trace is missing, or was never called."""


@dataclass(frozen=True)
class EntryPoint:
    """One function or method to wrap.

    `name` is the span name, or a callable mapping the call's positional
    arguments to it.  `flops(args, result)` adds a computed operation count to
    the span name's total.  With `count_if`, no span is recorded: the call
    counts once under `name` when `count_if(result)` is true.
    """

    owner: Any
    attr: str
    name: str | Callable
    flops: Callable | None = None
    count_if: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.flops = {}
        self._open = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        self.spans[idx][1] = self.clock()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self._open.pop() != idx:
            raise TracerError(f"span {self.spans[idx][0]!r} closed out of order")

    def wrap(self, fn: Callable, point: EntryPoint) -> Callable:
        name_of = point.name if callable(point.name) else (lambda args: point.name)

        if point.count_if is not None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                if point.count_if(out):
                    self.counts[point.name] = self.counts.get(point.name, 0) + 1
                return out

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if point.flops is not None:
                self.flops[name] = self.flops.get(name, 0) + point.flops(args, out)
            return out

        return traced

    def self_times(self):
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def self_totals(self, first: int = 0):
        """Summed self time per span name over spans[first:]."""
        totals = {}
        for (name, *_), t in zip(self.spans[first:], self.self_times()[first:]):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def call_counts(self, first: int = 0):
        calls = {}
        for name, *_ in self.spans[first:]:
            calls[name] = calls.get(name, 0) + 1
        return calls

    def require(self, names) -> None:
        """Fail unless every name was recorded as a span or a count."""
        seen = {s[0] for s in self.spans} | set(self.counts)
        missing = sorted(set(names) - seen)
        if missing:
            raise TracerError(f"entry points never called: {', '.join(missing)}")

    def records(self):
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


@contextmanager
def installed(tracer: Tracer, points):
    """Wrap every entry point inside the block; restore all of them after it."""
    saved = []
    try:
        for point in points:
            owner_vars = vars(point.owner)
            if point.attr not in owner_vars:
                owner = getattr(point.owner, "__qualname__", getattr(point.owner, "__name__", point.owner))
                raise TracerError(f"entry point {owner}.{point.attr} no longer exists")
            original = owner_vars[point.attr]
            saved.append((point.owner, point.attr, original))
            setattr(point.owner, point.attr, tracer.wrap(original, point))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
