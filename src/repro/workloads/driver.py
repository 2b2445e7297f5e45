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


class TraceDriver:
    """Drives a sink through one iteration of a workload."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    def run(self, sink) -> DriveResult:
        """Drive the whole trace: immortal cohorts, then churn cohorts
        until the allocation clock reaches the workload's volume."""
        spec = self.spec
        rng = trace_rng(spec, self.seed)
        alloc = sink.alloc
        add_ref = sink.add_ref
        add_root = sink.add_root
        objects = 0
        # Immortal cohorts: rooted once, never removed.
        immortal = 0
        while immortal < spec.immortal_bytes:
            sizes, footprints = draw_immortal_cohort(spec, rng, immortal)
            cohort = zip(sizes, footprints)
            head_size, footprint = next(cohort)
            head = alloc(head_size)
            add_root(head)
            immortal += footprint
            objects += 1
            for size, footprint in cohort:
                add_ref(head, alloc(size))
                immortal += footprint
                objects += 1
        # Churn cohorts, each with a sampled lifetime.
        clock = immortal
        total = spec.total_alloc_bytes
        mutations = spec.mutations_per_object
        mutation_budget = 0.0
        cohorts = expired = 0
        # (death_clock, sequence, head) -- the cohort number breaks ties.
        pending: List[tuple] = []
        while clock < total:
            while pending and pending[0][0] <= clock:
                _, _, dead_head = heapq.heappop(pending)
                sink.remove_root(dead_head)
                expired += 1
            lifetime, sizes, footprints, pinned = draw_churn_cohort(spec, rng, clock)
            cohort = zip(sizes, footprints, pinned)
            head_size, footprint, _ = next(cohort)
            head = alloc(head_size)
            add_root(head)
            clock += footprint
            objects += 1
            heapq.heappush(pending, (clock + lifetime, cohorts, head))
            cohorts += 1
            for size, footprint, pin in cohort:
                child = alloc(size, pin)
                add_ref(head, child)
                clock += footprint
                objects += 1
                if mutations > 0:
                    mutation_budget += mutations
                    while mutation_budget >= 1.0:
                        sink.mutate(child)
                        mutation_budget -= 1.0
        return DriveResult(
            allocated_objects=objects,
            allocated_bytes=clock,
            cohorts=cohorts,
            expired_cohorts=expired,
        )


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
