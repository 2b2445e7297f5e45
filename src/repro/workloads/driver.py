"""The trace driver: turns a :class:`WorkloadSpec` into allocations.

The driver feeds one sink, normally a :class:`VirtualMachine`. The
benchmark's *minimum heap* (the paper sizes every experiment as a
multiple of the per-benchmark minimum) comes from
:func:`estimate_min_heap`, which walks the same cohort draws without a
sink.

Because lifetimes are measured in allocated bytes, the driver advances
its own clock (in aligned object footprints), and all randomness comes
from the seeded generator, the event stream is identical for every
sink, collector, and failure configuration: only the memory manager's
reaction differs, exactly like replay methodology in the paper.
"""

from __future__ import annotations

import heapq
import random
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..hardware.geometry import Geometry
from ..heap.object_model import ALIGN_MASK, ALIGN_PAD
from ..units import KiB
from .spec import WorkloadSpec, draw_uniform


def trace_rng(spec: WorkloadSpec, seed: int) -> random.Random:
    """The seeded generator behind one workload trace."""
    # crc32, not hash(): str hashes are randomized per process
    # (PYTHONHASHSEED), which made traces — and thus every result —
    # irreproducible across processes, workers, and cache entries.
    return random.Random((seed << 16) ^ (zlib.crc32(spec.name.encode()) & 0xFFFF))


def draw_immortal_cohort(
    spec: WorkloadSpec, rng: random.Random, filled: int
) -> Tuple[List[int], List[int]]:
    """``(sizes, footprints)`` of the next immortal cohort, head first.

    The head comes from the small band; children follow until the
    cohort is full or ``filled`` reaches the immortal volume.
    """
    random_, getrandbits = rng.random, rng.getrandbits
    sizes = [draw_uniform(getrandbits, spec.draw_plan[3])]  # small band
    footprints = [(sizes[0] + ALIGN_PAD) & ALIGN_MASK]
    filled += footprints[0]
    for _ in range(spec.cohort_size - 1):
        if filled >= spec.immortal_bytes:
            break
        size = spec.draw_size(random_, getrandbits)
        sizes.append(size)
        footprints.append((size + ALIGN_PAD) & ALIGN_MASK)
        filled += footprints[-1]
    return sizes, footprints


def draw_churn_cohort(
    spec: WorkloadSpec, rng: random.Random, clock: int
) -> Tuple[int, List[int], List[int], List[bool]]:
    """``(lifetime, sizes, footprints, pinned)`` of the next churn cohort.

    The head comes from the small band, is never pinned, and is
    followed by the cohort's lifetime draw. Each child draws its pinned
    bit, then its size; the cohort stops early once ``clock`` reaches
    the workload's allocation volume.
    """
    random_, getrandbits = rng.random, rng.getrandbits
    sizes = [draw_uniform(getrandbits, spec.draw_plan[3])]  # small band
    footprints = [(sizes[0] + ALIGN_PAD) & ALIGN_MASK]
    pinned = [False]
    clock += footprints[0]
    lifetime = spec.sample_lifetime(rng)
    draw_size = spec.draw_size
    pinned_fraction = spec.pinned_fraction
    total = spec.total_alloc_bytes
    for _ in range(spec.cohort_size - 1):
        pinned.append(random_() < pinned_fraction)
        size = draw_size(random_, getrandbits)
        footprint = (size + ALIGN_PAD) & ALIGN_MASK
        sizes.append(size)
        footprints.append(footprint)
        clock += footprint
        if clock >= total:
            break
    return lifetime, sizes, footprints, pinned


@dataclass
class DriveResult:
    """Summary of one driven run."""

    allocated_objects: int
    allocated_bytes: int
    cohorts: int
    expired_cohorts: int


class DriverState:
    """The full resumable state of one driven workload iteration.

    Everything the trace driver knows between cohorts lives here, so a
    snapshot taken at a step boundary (one cohort = one step) restores
    to the exact event stream an uninterrupted run would produce: the
    seeded generator, the allocation clock, and the pending-death heap
    (which references live head objects by identity) all round-trip
    through pickle.
    """

    __slots__ = (
        "rng",
        "phase",
        "clock",
        "immortal",
        "cohorts",
        "expired",
        "objects",
        "pending",
        "sequence",
        "mutation_budget",
        "steps",
    )

    #: Phases of a run, in order.
    IMMORTAL = "immortal"
    CHURN = "churn"
    DONE = "done"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.phase = self.IMMORTAL
        self.clock = 0
        self.immortal = 0
        self.cohorts = 0
        self.expired = 0
        self.objects = 0
        # (death_clock, sequence, head) — sequence breaks ties.
        self.pending: List[tuple] = []
        self.sequence = 0
        self.mutation_budget = 0.0
        #: Completed step() calls; checkpoint policies key off this.
        self.steps = 0


class TraceDriver:
    """Drives a sink through one iteration of a workload.

    The driver is a resumable state machine: :meth:`begin` initializes
    a :class:`DriverState`, each :meth:`step` emits one cohort of
    allocations (returning False once the trace is exhausted), and
    :meth:`result` summarizes. :meth:`run` is the one-shot convenience
    wrapper and produces an event stream identical to stepping manually,
    so a run checkpointed between steps and resumed elsewhere replays
    bit-for-bit.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self.state: Optional[DriverState] = None

    # ------------------------------------------------------------------
    def begin(self) -> DriverState:
        """Start (or restart) the trace; returns the fresh state."""
        self.state = DriverState(trace_rng(self.spec, self.seed))
        return self.state

    @property
    def done(self) -> bool:
        return self.state is not None and self.state.phase == DriverState.DONE

    def step(self, sink) -> bool:
        """Advance by one cohort; False when the trace is exhausted."""
        state = self.state
        if state is None:
            raise RuntimeError("call begin() before step()")
        if state.phase == DriverState.IMMORTAL:
            self._step_immortal(state, sink)
        elif state.phase == DriverState.CHURN:
            if state.clock >= self.spec.total_alloc_bytes:
                state.phase = DriverState.DONE
            else:
                self._step_churn(state, sink)
        if state.phase == DriverState.DONE:
            return False
        state.steps += 1
        return True

    def _step_immortal(self, state: DriverState, sink) -> None:
        """One immortal cohort: rooted once, never removed."""
        spec = self.spec
        if state.immortal >= spec.immortal_bytes:
            state.clock += state.immortal
            state.phase = DriverState.CHURN
            return
        sizes, footprints = draw_immortal_cohort(spec, state.rng, state.immortal)
        cohort = zip(sizes, footprints)
        head_size, footprint = next(cohort)
        head = sink.alloc(head_size)
        sink.add_root(head)
        state.immortal += footprint
        state.objects += 1
        for size, footprint in cohort:
            sink.add_ref(head, sink.alloc(size))
            state.immortal += footprint
            state.objects += 1

    def _step_churn(self, state: DriverState, sink) -> None:
        """One churn cohort with a sampled lifetime."""
        spec = self.spec
        pending = state.pending
        while pending and pending[0][0] <= state.clock:
            _, _, dead_head = heapq.heappop(pending)
            sink.remove_root(dead_head)
            state.expired += 1
        lifetime, sizes, footprints, pinned = draw_churn_cohort(
            spec, state.rng, state.clock
        )
        cohort = zip(sizes, footprints, pinned)
        head_size, footprint, _ = next(cohort)
        head = sink.alloc(head_size)
        sink.add_root(head)
        state.clock += footprint
        state.objects += 1
        state.cohorts += 1
        heapq.heappush(pending, (state.clock + lifetime, state.sequence, head))
        state.sequence += 1
        alloc = sink.alloc
        add_ref = sink.add_ref
        mutations = spec.mutations_per_object
        for size, footprint, pin in cohort:
            child = alloc(size, pin)
            add_ref(head, child)
            state.clock += footprint
            state.objects += 1
            if mutations > 0:
                state.mutation_budget += mutations
                while state.mutation_budget >= 1.0:
                    sink.mutate(child)
                    state.mutation_budget -= 1.0

    def result(self) -> DriveResult:
        state = self.state
        if state is None:
            raise RuntimeError("the driver never ran")
        return DriveResult(
            allocated_objects=state.objects,
            allocated_bytes=state.clock,
            cohorts=state.cohorts,
            expired_cohorts=state.expired,
        )

    # ------------------------------------------------------------------
    def run(self, sink) -> DriveResult:
        """Drive the whole trace in one call (fresh start)."""
        self.begin()
        while self.step(sink):
            pass
        return self.result()


def estimate_min_heap(
    spec: WorkloadSpec,
    seed: int = 0,
    geometry: Optional[Geometry] = None,
    headroom: float = 1.30,
) -> int:
    """The benchmark's minimum heap, block-aligned (paper section 5).

    Peak live bytes come from the driver's cohort draws alone, with no
    sink: a cohort's footprints stay live until its death clock, and
    live bytes only fall when a cohort starts, so the peak is read at
    cohort ends. The minimum workable heap adds collector headroom (a
    heap exactly equal to peak live thrashes). The estimate is
    collector-independent, as in the paper, which picks one minimum per
    benchmark and sizes all configurations from it.
    """
    geometry = geometry or Geometry()
    page = geometry.page

    def cohort_bytes(footprints: List[int]) -> int:
        # Large objects occupy whole pages.
        return sum(f if f <= 8 * KiB else -(-f // page) * page for f in footprints)

    rng = trace_rng(spec, seed)
    immortal = live = 0
    while immortal < spec.immortal_bytes:
        _, footprints = draw_immortal_cohort(spec, rng, immortal)
        immortal += sum(footprints)
        live += cohort_bytes(footprints)
    clock = immortal
    peak = live  # immortal cohorts only add live bytes
    # (death clock, cohort bytes): every death at or before the clock
    # is popped, so ties need no sequence number.
    pending: List[Tuple[int, int]] = []
    while clock < spec.total_alloc_bytes:
        while pending and pending[0][0] <= clock:
            live -= heapq.heappop(pending)[1]
        lifetime, _, footprints, _ = draw_churn_cohort(spec, rng, clock)
        cohort = cohort_bytes(footprints)
        heapq.heappush(pending, (clock + footprints[0] + lifetime, cohort))
        clock += sum(footprints)
        live += cohort
        peak = max(peak, live)
    raw = int(peak * headroom) + 2 * geometry.block
    block = geometry.block
    return (raw + block - 1) // block * block
