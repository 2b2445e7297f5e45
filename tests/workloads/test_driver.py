"""Tests for the trace driver and min-heap estimation."""

import dataclasses

import pytest

from repro.hardware.geometry import Geometry
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.units import KiB, MiB
from repro.workloads.dacapo import DACAPO, workload
from repro.workloads.driver import TraceDriver, estimate_min_heap
from repro.workloads.spec import WorkloadSpec

from .oracles import LivenessProbe, estimate_min_heap_reference

G = Geometry()

SPEC = WorkloadSpec(
    name="driver-test",
    description="small deterministic workload",
    total_alloc_bytes=512 * KiB,
    immortal_bytes=32 * KiB,
    short_lifetime_bytes=24 * KiB,
    long_lifetime_bytes=128 * KiB,
    long_fraction=0.1,
    size_weights=(0.9, 0.08, 0.02),
    cohort_size=8,
)


class TestLivenessProbe:
    def test_tracks_peak(self):
        probe = LivenessProbe()
        a = probe.alloc(100)
        probe.add_root(a)
        b = probe.alloc(100)
        probe.add_ref(a, b)
        peak = probe.peak_live_bytes
        probe.remove_root(a)
        assert probe.live_bytes == 0
        assert probe.peak_live_bytes == peak > 0

    def test_large_objects_page_rounded(self):
        probe = LivenessProbe()
        obj = probe.alloc(9 * KiB)
        assert obj.size == 3 * G.page  # 9 KiB + header -> 3 pages


class TestTraceDriver:
    def test_deterministic_per_seed(self):
        a = TraceDriver(SPEC, seed=5).run(LivenessProbe())
        b = TraceDriver(SPEC, seed=5).run(LivenessProbe())
        assert a == b
        c = TraceDriver(SPEC, seed=6).run(LivenessProbe())
        assert a != c

    def test_allocates_requested_volume(self):
        result = TraceDriver(SPEC, 0).run(LivenessProbe())
        assert result.allocated_bytes >= SPEC.total_alloc_bytes
        assert result.allocated_bytes < SPEC.total_alloc_bytes * 1.2
        assert result.cohorts > 0
        assert result.expired_cohorts > 0

    def test_same_trace_for_different_sinks(self):
        probe_result = TraceDriver(SPEC, 0).run(LivenessProbe())
        vm = VirtualMachine(VmConfig(heap_bytes=2 * MiB))
        vm_result = TraceDriver(SPEC, 0).run(vm)
        assert probe_result.allocated_objects == vm_result.allocated_objects
        assert probe_result.cohorts == vm_result.cohorts

    def test_mutations_issued_when_configured(self):
        spec = dataclasses.replace(SPEC, mutations_per_object=1.0)

        class CountingProbe(LivenessProbe):
            mutations = 0

            def mutate(self, obj):
                CountingProbe.mutations += 1

        TraceDriver(spec, 0).run(CountingProbe())
        assert CountingProbe.mutations > 100

    def test_pinned_fraction(self):
        spec = dataclasses.replace(SPEC, pinned_fraction=0.5)
        vm = VirtualMachine(VmConfig(heap_bytes=2 * MiB))
        TraceDriver(spec, 0).run(vm)
        pinned = sum(
            1 for b in vm.collector.blocks for o in b.objects if o.pinned
        )
        assert pinned > 0


class TestMinHeapEstimation:
    def test_block_aligned(self):
        min_heap = estimate_min_heap(SPEC)
        assert min_heap % G.block == 0

    def test_exceeds_peak_live(self):
        probe = LivenessProbe()
        TraceDriver(SPEC, 0).run(probe)
        assert estimate_min_heap(SPEC) > probe.peak_live_bytes

    def test_workload_completes_at_twice_min_heap(self):
        min_heap = estimate_min_heap(SPEC)
        vm = VirtualMachine(VmConfig(heap_bytes=2 * min_heap))
        TraceDriver(SPEC, 0).run(vm)  # must not raise
        assert vm.stats.objects_allocated > 0


class TestMinHeapOracle:
    """The sink-free estimate equals the probe-driven one."""

    @pytest.mark.parametrize("scale", [1.0, 0.35, 0.02])
    @pytest.mark.parametrize("name", [spec.name for spec in DACAPO])
    def test_matches_probe_for_every_dacapo_workload(self, name, scale):
        spec = workload(name)
        if scale != 1.0:
            spec = spec.scaled(scale)
        # The keys the harness caches min heaps on: workload, line size
        # and scale.
        for immix_line in (64, 128, 256):
            geometry = Geometry(immix_line=immix_line)
            assert estimate_min_heap(
                spec, geometry=geometry
            ) == estimate_min_heap_reference(spec, geometry=geometry)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_matches_probe_across_seeds_and_pinning(self, seed):
        for spec in (
            SPEC,
            dataclasses.replace(SPEC, pinned_fraction=0.3, immortal_bytes=0),
            dataclasses.replace(SPEC, size_weights=(0.2, 0.3, 0.5)),
        ):
            assert estimate_min_heap(spec, seed) == estimate_min_heap_reference(
                spec, seed
            )
