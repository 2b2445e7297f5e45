"""Reference implementations of the workload draws, for tests only.

Each function here is the plain formulation that a faster routine in
``src/`` replaced:

* :func:`sample_size_reference` draws a payload size through
  ``Random.randint``, as the trace driver did before
  :func:`repro.workloads.spec.draw_uniform` took over;
* :class:`LivenessProbe` is a VM-free sink that tracks live bytes, and
  :func:`estimate_min_heap_reference` drives it through the trace to get
  the minimum heap that :func:`repro.workloads.driver.estimate_min_heap`
  now computes from the cohort draws alone.

The suites in ``tests/workloads/`` check the routines against these
oracles and ``benchmarks/test_kernels.py`` times them. Nothing in
``src/`` calls this module.
"""

import random
from typing import Optional

from repro.hardware.geometry import Geometry
from repro.heap.object_model import aligned_size
from repro.units import KiB
from repro.workloads.driver import TraceDriver
from repro.workloads.spec import WorkloadSpec


def sample_size_reference(spec: WorkloadSpec, rng: random.Random) -> int:
    """One payload size from the mixture, drawn with ``randint``."""
    small_w, medium_w, large_w = spec.size_weights
    pick = rng.random() * (small_w + medium_w + large_w)
    if pick < small_w:
        band = spec.small
    elif pick < small_w + medium_w:
        band = spec.medium
    else:
        band = spec.large
    return rng.randint(band.lo, band.hi)


class LivenessProbe:
    """A sink that only tracks liveness (the min-heap oracle)."""

    def __init__(self, geometry: Optional[Geometry] = None) -> None:
        self.geometry = geometry or Geometry()
        self.live_bytes = 0
        self.peak_live_bytes = 0
        self._cohort_bytes: dict = {}
        self._next_id = 0
        self.objects_allocated = 0

    class _Stub:
        __slots__ = ("oid", "size")

        def __init__(self, oid: int, size: int) -> None:
            self.oid = oid
            self.size = size

    def _footprint(self, size: int) -> int:
        total = aligned_size(size)
        if total > 8 * KiB:  # large objects occupy whole pages
            page = self.geometry.page
            total = (total + page - 1) // page * page
        return total

    def alloc(self, size: int, pinned: bool = False):
        stub = self._Stub(self._next_id, self._footprint(size))
        self._next_id += 1
        self.objects_allocated += 1
        self.live_bytes += stub.size
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        return stub

    def add_root(self, obj) -> None:
        self._cohort_bytes[obj.oid] = obj.size

    def remove_root(self, obj) -> None:
        self.live_bytes -= self._cohort_bytes.pop(obj.oid)

    def add_ref(self, parent, child) -> None:
        # Cohort members live and die with their head.
        self._cohort_bytes[parent.oid] += child.size

    def mutate(self, obj) -> None:
        return None


def estimate_min_heap_reference(
    spec: WorkloadSpec,
    seed: int = 0,
    geometry: Optional[Geometry] = None,
    headroom: float = 1.30,
) -> int:
    """The minimum heap from a probe-driven dry run of the trace."""
    geometry = geometry or Geometry()
    probe = LivenessProbe(geometry)
    TraceDriver(spec, seed).run(probe)
    raw = int(probe.peak_live_bytes * headroom) + 2 * geometry.block
    block = geometry.block
    return (raw + block - 1) // block * block
