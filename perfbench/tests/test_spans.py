"""Span recording and self-time arithmetic of the benchmark tracer."""

import types

import pytest

from spans import Span, Tracer, self_time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    parent = Span(0, "p", 0.0, 10.0, None)
    kids = [Span(1, "a", 1.0, 3.0, 0), Span(2, "b", 5.0, 6.0, 0)]
    assert self_time(parent, kids) == pytest.approx(7.0)


def test_self_time_merges_overlaps_and_clips():
    parent = Span(0, "p", 0.0, 10.0, None)
    kids = [
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 5.0, 0),  # overlaps a: covered once
        Span(3, "c", 9.0, 12.0, 0),  # clipped at the parent's end
        Span(4, "d", -2.0, -1.0, 0),  # entirely outside
    ]
    assert self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)


def test_nested_spans_record_parents_and_self_times():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("mid"):
            clock.now = 2.0
            with tracer.span("inner"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 8.0
        with tracer.span("other"):
            clock.now = 9.0
        clock.now = 10.0
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent is None
    assert by_name["mid"].parent == by_name["outer"].id
    assert by_name["inner"].parent == by_name["mid"].id
    # outer: 10 s, minus mid (5 s) and other (1 s); inner is mid's child.
    assert tracer.self_times("outer", ["mid", "other"]) == [pytest.approx(4.0)]
    # Subtracting only "other" leaves mid's time in outer's self time.
    assert tracer.self_times("outer", ["other"]) == [pytest.approx(9.0)]
    assert tracer.self_times("mid", ["inner"]) == [pytest.approx(2.0)]
    # inner is a grandchild of outer: child_sums finds it at any depth.
    assert tracer.child_sums("outer", "inner") == [pytest.approx(3.0)]


def test_windows_select_spans_by_start():
    clock = FakeClock()
    tracer = Tracer(clock)
    for start in (0.0, 2.0, 4.0):
        clock.now = start
        with tracer.span("call"):
            clock.now = start + 1.0
    assert tracer.durations("call", (1.0, 4.0)) == [pytest.approx(1.0)]
    assert len(tracer.named("call")) == 3


def test_wrap_times_calls_counts_and_uninstalls():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Engine:
        def run(self, steps):
            clock.now += steps
            return steps * 2

    module = types.SimpleNamespace()
    module.helper = lambda x: x + 1
    original_run, original_helper = Engine.__dict__["run"], module.helper
    tracer.wrap(Engine, "run", "engine.run", lambda args, kwargs, result: tracer.count("runs"))
    tracer.wrap(module, "helper", "helper")
    assert Engine().run(3) == 6
    assert module.helper(1) == 2
    assert tracer.durations("engine.run") == [pytest.approx(3.0)]
    assert tracer.counts == {"runs": 1}
    tracer.uninstall()
    assert Engine.__dict__["run"] is original_run
    assert module.helper is original_helper


def test_span_closes_when_the_body_raises():
    tracer = Tracer(FakeClock())
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError
    with tracer.span("after"):
        pass
    assert [s.parent for s in tracer.spans] == [None, None]
