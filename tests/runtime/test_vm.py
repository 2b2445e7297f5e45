"""Tests for the VM facade: protocol, compensation, failure handling."""

import pytest

from repro.errors import ConfigError, OutOfMemoryError
from repro.faults.generator import FailureModel
from repro.hardware.geometry import Geometry, popcount
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.units import KiB, MiB

G = Geometry()


def make_vm(heap=1 * MiB, **kwargs):
    return VirtualMachine(VmConfig(heap_bytes=heap, **kwargs))


class TestConfig:
    def test_unknown_collector_rejected(self):
        with pytest.raises(ConfigError):
            VmConfig(heap_bytes=1 * MiB, collector="copying")

    def test_non_positive_heap_rejected(self):
        with pytest.raises(ConfigError):
            VmConfig(heap_bytes=0)


class TestConstruction:
    def test_handler_registered_before_mapping(self):
        # Construction succeeds only because the VM registers its
        # failure handler before calling mmap_imperfect (the paper's
        # protocol); this would raise ProtocolError otherwise.
        vm = make_vm(failure_model=FailureModel(rate=0.10))
        assert vm.os._handler is not None

    def test_compensation_scales_raw_heap(self):
        plain = make_vm(heap=1 * MiB)
        compensated = make_vm(heap=1 * MiB, failure_model=FailureModel(rate=0.50))
        assert compensated.supply.total_pages >= 2 * plain.supply.total_pages - 8

    def test_compensation_disabled(self):
        vm = make_vm(
            heap=1 * MiB, failure_model=FailureModel(rate=0.50), compensate=False
        )
        assert vm.supply.total_pages == 1 * MiB // G.page

    def test_failure_map_folded_into_blocks(self):
        vm = make_vm(failure_model=FailureModel(rate=0.25), seed=3)
        obj = vm.alloc(64)
        vm.add_root(obj)
        # The first block has failures seeded from the OS failure map.
        total_failed = sum(popcount(p.failed_bits) for p in vm.collector.blocks[0].pages)
        assert total_failed > 0


class TestAllocation:
    def test_alloc_and_roots(self):
        vm = make_vm()
        obj = vm.alloc(100)
        vm.add_root(obj)
        assert vm.live_root_count == 1
        vm.remove_root(obj)
        assert vm.live_root_count == 0

    def test_alloc_triggers_collection_when_full(self):
        vm = make_vm(heap=256 * KiB)
        head = vm.alloc(64)
        vm.add_root(head)
        for _ in range(5000):
            vm.alloc(100)  # garbage
        assert vm.stats.collections > 0

    def test_out_of_memory_when_live_exceeds_heap(self):
        vm = make_vm(heap=128 * KiB)
        head = vm.alloc(64)
        vm.add_root(head)
        with pytest.raises(OutOfMemoryError):
            for _ in range(5000):
                vm.add_ref(head, vm.alloc(256))

    def test_pinned_allocation(self):
        vm = make_vm()
        obj = vm.alloc(64, pinned=True)
        assert obj.pinned

    def test_write_barrier_via_add_ref(self):
        vm = make_vm(collector="sticky-immix")
        parent = vm.alloc(64)
        vm.add_root(parent)
        vm.collect(force_full=True)
        assert parent.old
        child = vm.alloc(64)
        vm.add_ref(parent, child)
        vm.collect()  # nursery: child survives through the remset
        assert child.old

    def test_add_ref_gives_a_leaf_its_list(self):
        vm = make_vm()
        parent, child, other = vm.alloc(64), vm.alloc(64), vm.alloc(64)
        assert not parent.refs
        vm.add_ref(parent, child)
        refs = parent.refs
        assert refs == [child]
        vm.add_ref(parent, other)
        assert parent.refs is refs
        assert refs == [child, other]
        assert not child.refs and not other.refs

    @pytest.mark.parametrize("collector", ["sticky-immix", "sticky-marksweep"])
    def test_write_barrier_remembers_an_old_leafs_first_edge(self, collector):
        vm = make_vm(collector=collector)
        parent = vm.alloc(64)
        vm.add_root(parent)
        vm.collect(force_full=True)
        assert parent.old and not parent.refs
        young = vm.alloc(64)
        vm.add_ref(young, vm.alloc(64))  # young -> young: not remembered
        assert not vm.collector._remset
        vm.add_ref(parent, young)
        assert vm.collector._remset == {parent}
        vm.add_ref(young, parent)  # young -> old: not remembered
        assert vm.collector._remset == {parent}

    def test_marksweep_collector_selectable(self):
        vm = make_vm(collector="marksweep")
        obj = vm.alloc(64)
        vm.add_root(obj)
        vm.collect()
        assert vm.stats.full_collections == 1

    def test_simulated_time_positive_and_monotonic(self):
        vm = make_vm()
        t0 = vm.simulated_time()
        vm.alloc(64)
        assert vm.simulated_time() > t0
        assert vm.simulated_ms() > 0


class TestDynamicFailures:
    def make_wearing_vm(self, **kwargs):
        from repro.faults.injector import FaultInjector
        from repro.hardware.pcm import EnduranceModel, PcmModule

        geometry = Geometry()
        pcm = PcmModule(
            size_bytes=96 * geometry.region,
            geometry=geometry,
            endurance=EnduranceModel(mean_writes=200, cv=0.2, seed=1),
            failure_buffer_capacity=128,
        )
        injector = FaultInjector(FailureModel(), geometry=geometry, pcm=pcm)
        config = VmConfig(
            heap_bytes=512 * KiB,
            wear_writes=True,
            compensate=False,
            **kwargs,
        )
        return VirtualMachine(config, injector=injector), pcm

    def test_wear_writes_reach_the_module(self):
        vm, pcm = self.make_wearing_vm()
        obj = vm.alloc(100)
        vm.add_root(obj)
        assert pcm.total_writes > 0
        vm.mutate(obj)
        before = pcm.total_writes
        vm.mutate(obj)
        assert pcm.total_writes == before + 1

    def test_add_ref_wears_the_parents_first_word(self, monkeypatch):
        vm, pcm = self.make_wearing_vm()
        parent, child = vm.alloc(100), vm.alloc(100)
        vm.add_root(parent)
        stores = []
        write = pcm.write

        def spy(address, size=1, data=None):
            stores.append((address, size, data))
            return write(address, size, data)

        monkeypatch.setattr(pcm, "write", spy)
        vm.add_ref(parent, child)  # the leaf's first reference
        vm.add_ref(parent, child)
        vm.mutate(parent)
        assert len(stores) == 3
        assert stores[0][1:] == (8, parent.oid)
        assert stores[0] == stores[1] == stores[2]

    def test_dynamic_failures_evacuate_objects(self):
        vm, pcm = self.make_wearing_vm()
        head = vm.alloc(64)
        vm.add_root(head)
        # Hammer allocations until lines wear out and failures flow
        # through the OS up-call into evacuating collections.
        for i in range(4000):
            child = vm.alloc(80)
            if i % 4 == 0:
                vm.add_ref(head, child)
            vm.mutate(child)
        assert pcm.failed_fraction() > 0
        assert vm.stats.dynamic_failure_collections > 0
        # Invariant: no live object overlaps a failed line.
        for block in vm.collector.blocks:
            failed = block.failed_line_indices()
            for obj in block.objects:
                for line in obj.line_span(vm.geometry.immix_line):
                    assert line not in failed

    def test_page_retirement_mode_poisons_whole_pages(self):
        vm, pcm = self.make_wearing_vm(page_retirement=True)
        head = vm.alloc(64)
        vm.add_root(head)
        for _ in range(3000):
            vm.mutate(vm.alloc(80))
        if pcm.failed_fraction() > 0:
            poisoned = sum(
                block.n_failed for block in vm.collector.blocks
            )
            real = len(pcm.failed_logical_lines())
            lines_per_page_in_immix = vm.geometry.page // vm.geometry.immix_line
            assert poisoned >= min(real, 1) * lines_per_page_in_immix
