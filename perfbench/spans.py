"""Spans recorded from outside the program.

The benchmark never edits `scscreen`. To see where an operation spends its
time it replaces public functions *at the names their callers look up*
(for example `scscreen.screen.train`, the name `run_candidate_screen`'s folds
call) with wrappers that record a span around the original call, then puts
the originals back. Spans stay in memory and are written out when the run
ends.

A span is (name, start, end, parent, op, error): `parent` is the index of the
span that was open when it started (-1 for none), `op` the operation it
belongs to, `error` whether the call raised. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Collects spans and counts for one benchmark process.

    `op` names the operation now running; spans and counts are filed under
    it. While `enabled` is false the wrappers call straight through, which
    keeps correctness checks out of the trace. Calls are expected from one
    thread (the workloads run with `--jobs 1`), so a plain stack tracks the
    open span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = "setup"
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._self_times: list[float] | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op][name] += value

    def wrap(self, fn, name: str, *, prepare=None, on_return=None):
        """A wrapper recording a `name` span around each call of fn.

        prepare(kwargs) may adjust the keyword arguments before the call;
        on_return(tracer, args, kwargs, result) may record counts after it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if prepare is not None:
                kwargs = prepare(self, kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            self.close(index)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, **hooks) -> None:
        """Replace module.attr with a traced wrapper until `unpatch`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, **hooks))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- summaries --------------------------------------------------------

    def ops(self) -> list[str]:
        """Operation names in the order their first span opened."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.op, None)
        for op in self.counts:
            seen.setdefault(op, None)
        return list(seen)

    def per_op(self, op: str) -> dict[str, dict[str, float]]:
        """For one op: per span name its call count, error count, total time
        and total self time."""
        if self._self_times is None or len(self._self_times) != len(self.spans):
            self._self_times = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "errors": 0, "s": 0.0, "self_s": 0.0}
        )
        for s, own in zip(self.spans, self._self_times):
            if s.op != op:
                continue
            row = out[s.name]
            row["calls"] += 1
            row["errors"] += int(s.error)
            row["s"] += s.duration
            row["self_s"] += own
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines, one object per span, in start order."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "error": s.error,
                }) + "\n")


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
