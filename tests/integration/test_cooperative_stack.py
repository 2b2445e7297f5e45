"""Integration tests across the hardware / OS / runtime boundary.

These exercise the paper's cooperative protocol end-to-end rather than
any single layer: failure state must be consistent at every level, and
the runtime must uphold its invariants no matter which layer produced
the failure.
"""

import random

import pytest

from repro.faults.generator import FailureModel
from repro.faults.injector import FaultInjector
from repro.hardware.geometry import Geometry, popcount
from repro.hardware.pcm import EnduranceModel, PcmModule
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.units import KiB, MiB
from repro.workloads.driver import TraceDriver
from repro.workloads.spec import WorkloadSpec

G = Geometry()

SMALL_SPEC = WorkloadSpec(
    name="integration",
    description="small mixed workload",
    total_alloc_bytes=768 * KiB,
    immortal_bytes=48 * KiB,
    short_lifetime_bytes=32 * KiB,
    long_lifetime_bytes=160 * KiB,
    long_fraction=0.08,
    size_weights=(0.92, 0.06, 0.02),
    cohort_size=12,
    pinned_fraction=0.01,
)


def assert_vm_invariants(vm):
    """The paper's correctness conditions, checked heap-wide."""
    line_size = vm.geometry.immix_line
    for block in vm.collector.blocks:
        failed = block.failed_line_indices()
        extents = []
        for obj in block.objects:
            for line in obj.line_span(line_size):
                assert line not in failed, (
                    f"live object {obj.oid} on failed line {line}"
                )
            extents.append((obj.offset, obj.offset + obj.size))
        extents.sort()
        for (_, end), (start, _) in zip(extents, extents[1:]):
            assert end <= start, "objects overlap"


class TestStaticFailureFlow:
    def test_failure_map_consistent_across_layers(self):
        model = FailureModel(rate=0.20, hw_region_pages=2)
        injector = FaultInjector(model, pcm_bytes=32 * G.region, seed=7)
        # Hardware view == OS view.
        hw_lines = injector.pcm.failed_logical_lines()
        os_lines = set()
        for page in injector.os.failure_table.imperfect_pages():
            for offset in injector.os.failure_table.failed_offsets(page):
                os_lines.add(page * G.lines_per_page + offset)
        assert hw_lines == os_lines
        # OS view == the injected static map.
        assert hw_lines == set(injector.static_map.failed_lines)

    def test_vm_blocks_reflect_os_failure_map(self):
        vm = VirtualMachine(
            VmConfig(heap_bytes=1 * MiB, failure_model=FailureModel(rate=0.20), seed=3)
        )
        TraceDriver(SMALL_SPEC, 1).run(vm)
        table = vm.os.failure_table
        ratio = vm.geometry.pcm_lines_per_immix_line
        for block in vm.collector.blocks:
            failed = block.failed_line_indices()
            for slot, page in enumerate(block.pages):
                if page.borrowed:
                    continue
                for offset in table.failed_offsets(page.index):
                    byte = slot * vm.geometry.page + offset * vm.geometry.pcm_line
                    assert byte // vm.geometry.immix_line in failed

    @pytest.mark.parametrize(
        "model",
        [
            FailureModel(),
            FailureModel(rate=0.10),
            FailureModel(rate=0.10, hw_region_pages=1),
            FailureModel(rate=0.30, hw_region_pages=2),
            FailureModel(rate=0.25, cluster_bytes=1024),
        ],
        ids=lambda m: m.describe(),
    )
    def test_workload_runs_with_invariants(self, model):
        vm = VirtualMachine(
            VmConfig(heap_bytes=1 * MiB, failure_model=model, seed=5)
        )
        TraceDriver(SMALL_SPEC, 2).run(vm)
        vm.collect(force_full=True)
        assert_vm_invariants(vm)
        # Live roots must all still be reachable through placements.
        for root in vm.roots():
            assert root.block is not None or root.is_large


class TestDynamicFailureFlow:
    def make_vm(self):
        geometry = Geometry()
        pcm = PcmModule(
            size_bytes=128 * geometry.region,
            geometry=geometry,
            endurance=EnduranceModel(mean_writes=150, cv=0.25, seed=2),
            clustering_enabled=True,
            failure_buffer_capacity=128,
        )
        injector = FaultInjector(FailureModel(), geometry=geometry, pcm=pcm)
        config = VmConfig(
            heap_bytes=768 * KiB, wear_writes=True, compensate=False, seed=2
        )
        return VirtualMachine(config, injector=injector), pcm

    def test_full_path_hardware_to_evacuation(self):
        vm, pcm = self.make_vm()
        rng = random.Random(0)
        head = vm.alloc(64)
        vm.add_root(head)
        for i in range(6000):
            child = vm.alloc(rng.choice([40, 72, 120]))
            if i % 8 == 0:
                vm.add_ref(head, child)
            vm.mutate(child)
        assert pcm.failed_fraction() > 0, "the module should have worn"
        # The OS delivered up-calls, the VM ran failure collections.
        assert vm.os.upcalls > 0
        assert vm.stats.dynamic_failure_collections > 0
        # Failure buffer fully drained: no data stranded in hardware.
        assert len(pcm.failure_buffer) == 0
        assert_vm_invariants(vm)

    def test_clustered_failures_stay_contiguous_at_runtime(self):
        vm, pcm = self.make_vm()
        head = vm.alloc(64)
        vm.add_root(head)
        for _ in range(6000):
            vm.mutate(vm.alloc(64))
        per_region = vm.geometry.lines_per_region
        for line_set, region in (
            (sorted(pcm.failed_logical_lines()), None),
        ):
            by_region = {}
            for line in line_set:
                by_region.setdefault(line // per_region, []).append(line % per_region)
            for region_index, offsets in by_region.items():
                offsets.sort()
                run = list(range(offsets[0], offsets[0] + len(offsets)))
                assert offsets == run, "clustered failures must be contiguous"
                assert offsets[0] == 0 or offsets[-1] == per_region - 1


class TestCompensation:
    def test_usable_memory_held_constant(self):
        # The paper's compensation rule: raw * (1 - f) == intended heap.
        for rate in (0.10, 0.25, 0.50):
            vm = VirtualMachine(
                VmConfig(
                    heap_bytes=1 * MiB,
                    failure_model=FailureModel(rate=rate),
                    seed=9,
                )
            )
            raw_bytes = vm.supply.total_pages * vm.geometry.page
            failed_bytes = sum(
                popcount(p.failed_bits) * vm.geometry.pcm_line
                for span in vm.supply._spans
                for p in span.pages
            )
            usable = raw_bytes - failed_bytes
            assert usable == pytest.approx(1 * MiB, rel=0.06)


class TestDeterminism:
    def test_identical_runs_produce_identical_stats(self):
        def run():
            vm = VirtualMachine(
                VmConfig(
                    heap_bytes=1 * MiB,
                    failure_model=FailureModel(rate=0.15, hw_region_pages=2),
                    seed=13,
                )
            )
            TraceDriver(SMALL_SPEC, 4).run(vm)
            return vm.stats.snapshot()

        assert run() == run()
