"""Unit tests for the Tracer: ring buffer, spans, phase accounting."""

import pytest

from repro.obs import ROOT_PHASE, Tracer, maybe_span
from repro.obs.trace import HARDWARE, RUNTIME


class FakeClock:
    """A hand-cranked monotone clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, delta: float) -> float:
        self.now += delta
        return self.now

    def __call__(self) -> float:
        return self.now


class TestRingBuffer:
    def test_records_in_order(self):
        tracer = Tracer()
        tracer.instant("a", HARDWARE)
        tracer.instant("b", RUNTIME)
        assert [e.name for e in tracer.events()] == ["a", "b"]
        assert tracer.recorded == 2 and tracer.dropped == 0

    def test_overflow_evicts_oldest_and_counts_dropped(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            tracer.instant(f"e{index}")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.recorded == 10
        # The survivors are the newest events, still in order.
        assert [e.name for e in tracer.events()] == ["e6", "e7", "e8", "e9"]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestSpans:
    def test_span_emits_balanced_begin_end(self):
        tracer = Tracer()
        with tracer.span("gc.full", RUNTIME, args={"n": 1}):
            tracer.instant("inner")
        phases = [(e.ph, e.name) for e in tracer.events()]
        assert phases == [("B", "gc.full"), ("i", "inner"), ("E", "gc.full")]
        assert tracer.events()[0].args == {"n": 1}

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("gc.full", phase="gc.other"):
                raise RuntimeError("boom")
        assert [e.ph for e in tracer.events()] == ["B", "E"]
        assert tracer.current_phase == ROOT_PHASE

    def test_maybe_span_is_noop_without_tracer(self):
        with maybe_span(None, "gc.full"):
            pass  # must not raise

    def test_maybe_span_delegates_with_tracer(self):
        tracer = Tracer()
        with maybe_span(tracer, "gc.full"):
            pass
        assert len(tracer) == 2


class TestPhaseAccounting:
    def test_breakdown_telescopes_to_clock_total(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.advance(10.0)  # mutator
        tracer.push_phase("gc.mark")
        clock.advance(7.0)
        tracer.pop_phase()
        clock.advance(3.0)  # mutator again
        breakdown = tracer.phase_breakdown()
        assert breakdown[ROOT_PHASE] == pytest.approx(13.0)
        assert breakdown["gc.mark"] == pytest.approx(7.0)
        assert sum(breakdown.values()) == pytest.approx(clock.now)

    def test_nested_phases_charge_innermost(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.push_phase("gc.other")
        clock.advance(1.0)
        tracer.push_phase("gc.mark")
        clock.advance(5.0)
        tracer.pop_phase()
        clock.advance(2.0)
        tracer.pop_phase()
        breakdown = tracer.phase_breakdown()
        assert breakdown["gc.mark"] == pytest.approx(5.0)
        assert breakdown["gc.other"] == pytest.approx(3.0)
        assert sum(breakdown.values()) == pytest.approx(clock.now)

    def test_breakdown_is_pure_mid_phase(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.push_phase("gc.mark")
        clock.advance(4.0)
        first = tracer.phase_breakdown()
        second = tracer.phase_breakdown()
        assert first == second
        assert first["gc.mark"] == pytest.approx(4.0)

    def test_popping_root_phase_is_an_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            tracer.pop_phase()

    def test_overflow_does_not_corrupt_breakdown(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, capacity=2)
        for _ in range(5):
            with tracer.span("gc.full", phase="gc.other"):
                clock.advance(1.0)
            clock.advance(1.0)
        assert tracer.dropped > 0
        breakdown = tracer.phase_breakdown()
        assert breakdown["gc.other"] == pytest.approx(5.0)
        assert breakdown[ROOT_PHASE] == pytest.approx(5.0)

    def test_bind_clock_resets_origin(self):
        tracer = Tracer()  # default zero clock
        clock = FakeClock()
        clock.advance(100.0)
        tracer.bind_clock(clock)
        clock.advance(1.0)
        breakdown = tracer.phase_breakdown()
        # The pre-bind 100 units never belonged to this tracer.
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_stop_clock_keeps_the_breakdown_and_drops_the_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.advance(3.0)
        tracer.push_phase("gc.mark")
        clock.advance(2.0)
        before = tracer.phase_breakdown()
        tracer.stop_clock()
        clock.advance(50.0)
        assert tracer.clock() == 5.0
        assert tracer.phase_breakdown() == before
        tracer.pop_phase()
        assert tracer.phase_breakdown() == before
