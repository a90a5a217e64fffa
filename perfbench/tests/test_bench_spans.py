"""Self-time arithmetic and span bookkeeping."""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Span, Tracer, covered_length, self_times  # noqa: E402


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_length([(2.0, 3.0), (2.0, 3.0)], 0.0, 10.0) == 1.0
    assert covered_length([(4.0, 6.0), (1.0, 2.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, "op0"),
        Span("child", 1.0, 4.0, 0, "op0"),
        Span("grandchild", 2.0, 3.0, 1, "op0"),
        Span("child", 5.0, 6.5, 0, "op0"),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_wrapped_calls_nest_and_count():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 10.0]))
    tracer.op = "op0"
    tracer.patch(module, "inner", "inner", on_return=lambda t, a, k, r: t.count("seen", a[0]))
    tracer.patch(module, "outer", "outer")
    assert module.outer(4) == 10
    tracer.unpatch()
    assert module.outer(4) == 10 and len(tracer.spans) == 2  # originals back
    outer, inner = sorted(tracer.spans, key=lambda s: s.parent)
    assert (outer.name, outer.parent, outer.duration) == ("outer", -1, 10.0)
    assert (inner.name, inner.parent, inner.duration) == ("inner", 0, 2.0)
    summary = tracer.per_op("op0")
    assert summary["outer"]["self_s"] == 8.0
    assert summary["inner"]["calls"] == 1
    assert tracer.counts["op0"]["seen"] == 4


def test_errors_are_marked_and_reraised():
    module = types.SimpleNamespace(f=lambda: 1 / 0)
    tracer = Tracer()
    tracer.patch(module, "f", "f")
    with pytest.raises(ZeroDivisionError):
        module.f()
    assert tracer.spans[0].error
    assert tracer.per_op("setup")["f"]["errors"] == 1


def test_disabled_tracer_records_nothing():
    module = types.SimpleNamespace(f=lambda: 3)
    tracer = Tracer()
    tracer.patch(module, "f", "f")
    tracer.enabled = False
    assert module.f() == 3
    assert tracer.spans == []
