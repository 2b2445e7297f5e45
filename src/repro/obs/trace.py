"""Structured tracing over simulated time.

The simulator has no wall clock worth recording: all interesting time
is *simulated* time, derived from the cost model as a linear function
of the monotonically-increasing ``GcStats`` counters. The tracer
therefore takes a ``clock`` callable — the VM binds it to
``cost_model.total_time(stats)`` — and stamps every event with the
simulated-time value at the moment it is recorded. Because the stats
counters only ever grow, the clock is monotone non-decreasing and the
resulting event stream is a well-formed timeline.

Two independent mechanisms live here:

* an **event ring buffer** of bounded capacity. When full, the oldest
  events are evicted and ``dropped`` counts the loss; nothing else
  degrades. Exporters surface the truncation so a half-trace is never
  mistaken for a whole one.
* **phase accounting**: a stack of phase labels ("mutator", "gc.mark",
  ...) where every clock delta is charged to the phase on top of the
  stack at the time it elapsed. The per-phase totals telescope — their
  sum is exactly the clock's final reading — which is what lets the
  ``time-breakdown`` invariant assert that the breakdown sums to
  ``RunResult.time_units``. Phase accounting is deliberately *not*
  stored in the ring buffer, so buffer overflow never corrupts the
  breakdown.

Instrumented modules hold ``self.tracer = None`` by default and guard
every hook with ``if tr is not None``; a disabled tracer costs one
attribute read at event sites and nothing at all on the allocation
fast path.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

#: Event categories — one per layer of the simulated stack.
HARDWARE = "hardware"
OS = "os"
RUNTIME = "runtime"
CATEGORIES = (HARDWARE, OS, RUNTIME)

#: The phase charged while no other phase is active.
ROOT_PHASE = "mutator"

DEFAULT_CAPACITY = 65536


class TraceEvent:
    """One typed event: instant ("i") or span begin/end ("B"/"E")."""

    __slots__ = ("name", "cat", "ph", "ts", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        ts: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.name!r}, {self.cat!r}, {self.ph!r}, ts={self.ts})"


class Tracer:
    """Bounded-ring event recorder with telescoping phase accounting."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.recorded = 0
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        # Phase accounting. All time belongs to ROOT_PHASE until a
        # phase is pushed; _last_clock is the reading up to which time
        # has already been charged.
        self._phase_stack: List[str] = [ROOT_PHASE]
        self._phase_totals: Dict[str, float] = {ROOT_PHASE: 0.0}
        self._last_clock = self._clock()

    # -- clock ----------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated clock; resets the accounting origin.

        The VM calls this at construction time, before any simulated
        cost has accrued, so no time is lost to the rebind.
        """
        self._clock = clock
        self._last_clock = clock()

    def stop_clock(self) -> None:
        """Hold the clock at its current reading from now on.

        Unlike :meth:`bind_clock`, the accounting origin stays where it
        is, so the phase totals are unchanged. A run calls this when it
        ends, which drops the tracer's reference to the machine behind
        the clock.
        """
        now = self._clock()
        self._clock = lambda: now

    def clock(self) -> float:
        """Current simulated time, in cost-model units."""
        return self._clock()

    # -- events ---------------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.recorded += 1

    def instant(
        self, name: str, cat: str = RUNTIME, args: Optional[Dict[str, Any]] = None
    ) -> None:
        self._record(TraceEvent(name, cat, "i", self._clock(), args))

    def begin(
        self, name: str, cat: str = RUNTIME, args: Optional[Dict[str, Any]] = None
    ) -> None:
        self._record(TraceEvent(name, cat, "B", self._clock(), args))

    def end(self, name: str, cat: str = RUNTIME) -> None:
        self._record(TraceEvent(name, cat, "E", self._clock(), None))

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = RUNTIME,
        phase: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator["Tracer"]:
        """A nested interval; optionally charges time to ``phase``."""
        self.begin(name, cat, args)
        if phase is not None:
            self.push_phase(phase)
        try:
            yield self
        finally:
            if phase is not None:
                self.pop_phase()
            self.end(name, cat)

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- phase accounting -----------------------------------------------
    def _charge_elapsed(self) -> None:
        now = self._clock()
        top = self._phase_stack[-1]
        self._phase_totals[top] = self._phase_totals.get(top, 0.0) + (
            now - self._last_clock
        )
        self._last_clock = now

    def push_phase(self, phase: str) -> None:
        self._charge_elapsed()
        self._phase_stack.append(phase)

    def pop_phase(self) -> None:
        if len(self._phase_stack) <= 1:
            raise RuntimeError("cannot pop the root phase")
        self._charge_elapsed()
        self._phase_stack.pop()

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1]

    def phase_breakdown(self) -> Dict[str, float]:
        """Per-phase simulated-time totals; safe to call mid-run.

        The returned totals include the time elapsed since the last
        phase switch (charged to the current phase), so their sum
        always equals the clock's current reading. The tracer's own
        state is not advanced.
        """
        totals = dict(self._phase_totals)
        top = self._phase_stack[-1]
        totals[top] = totals.get(top, 0.0) + (self._clock() - self._last_clock)
        return totals


def maybe_span(
    tracer: Optional[Tracer],
    name: str,
    cat: str = RUNTIME,
    phase: Optional[str] = None,
    args: Optional[Dict[str, Any]] = None,
):
    """``tracer.span(...)`` or a no-op context when tracing is off.

    Used at GC-frequency call sites where an inline guard would bloat
    the control flow; allocation fast paths use explicit guards
    instead.
    """
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cat, phase=phase, args=args)
