"""Tests for Immix blocks and false-failure seeding."""

import gc
import weakref

import pytest

from repro.hardware.geometry import Geometry
from repro.heap.block import Block, block_is_perfect, perfect_block
from repro.heap.heap_table import HeapTable
from repro.heap.line_table import FAILED, FREE, LIVE, LIVE_PINNED
from repro.heap.object_model import SimObject
from repro.heap.page_supply import HeapPage
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.units import MiB
from tests.heap.oracles import pages_from_offsets

G = Geometry()  # 256 B Immix lines, 4 KB pages, 32 KB blocks


def make_pages(failures=None):
    return pages_from_offsets(failures or {}, G, G.pages_per_block)


class TestConstruction:
    def test_wrong_page_count_rejected(self):
        with pytest.raises(ValueError):
            Block(0, [HeapPage(0)], G)

    def test_perfect_block_is_hole_free(self):
        block = Block(0, make_pages(), G)
        assert block_is_perfect(block)
        assert block.free_line_count() == G.immix_lines_per_block
        assert block.free_runs() == [(0, G.immix_lines_per_block)]

    def test_perfect_block_helper_rejects_holes(self):
        with pytest.raises(ValueError):
            perfect_block(0, make_pages({0: {3}}), G)

    def test_failed_pcm_line_poisons_immix_line(self):
        # PCM line offset 5 of page 0: bytes 320..383, Immix line 1.
        block = Block(0, make_pages({0: {5}}), G)
        assert block.line_states[1] == FAILED
        assert block.failed_line_count() == 1
        # One 64 B failure removes a whole 256 B line: false failure.
        assert block.free_line_count() == G.immix_lines_per_block - 1

    def test_failures_in_later_pages_map_correctly(self):
        # Page 2, PCM offset 0: byte 8192, Immix line 32.
        block = Block(0, make_pages({2: {0}}), G)
        assert block.line_states[32] == FAILED

    def test_multiple_pcm_failures_one_immix_line(self):
        # Offsets 0..3 of page 0 share Immix line 0 at 256 B lines.
        block = Block(0, make_pages({0: {0, 1, 2, 3}}), G)
        assert block.failed_line_count() == 1

    def test_virtual_base(self):
        block = Block(3, make_pages(), G)
        assert block.virtual_base == 3 * G.block


class TestPlacementAndSweep:
    def test_place_binds_object(self):
        block = Block(0, make_pages(), G)
        obj = SimObject(0, 64)
        block.place(obj, 512)
        assert obj.block is block
        assert obj.address == 512
        assert block.allocated_since_gc
        assert block.objects == [obj]

    def test_rebuild_marks_live_lines(self):
        block = Block(0, make_pages({0: {5}}), G)
        live = SimObject(0, 300)
        dead = SimObject(1, 300)
        block.place(live, 512)       # lines 2-3
        block.place(dead, 1024)      # lines 4-5
        live.mark = 7
        live_lines, scanned = block.rebuild_line_marks(epoch=7)
        assert scanned == G.immix_lines_per_block
        assert live_lines == 2
        assert block.line_states[2] == LIVE and block.line_states[3] == LIVE
        assert block.line_states[4] == FREE and block.line_states[5] == FREE
        assert block.line_states[1] == FAILED  # failures persist
        assert block.objects == [live]

    def test_rebuild_keeps_old_when_requested(self):
        block = Block(0, make_pages(), G)
        old = SimObject(0, 64)
        old.old = True
        young_dead = SimObject(1, 64)
        block.place(old, 0)
        block.place(young_dead, 256)
        block.rebuild_line_marks(epoch=9, keep_old=True)
        assert block.objects == [old]

    def test_pinned_lines_marked_pinned(self):
        block = Block(0, make_pages(), G)
        obj = SimObject(0, 64, pinned=True)
        block.place(obj, 0)
        obj.mark = 1
        block.rebuild_line_marks(epoch=1)
        assert block.line_states[0] == LIVE_PINNED

    def test_sweep_never_masks_failed_lines(self):
        # A surviving object overlapping a FAILED line (pinned, or an
        # aborted evacuation) must not overwrite the mark with LIVE: a
        # later sweep would hand the failed line back to the allocator.
        block = Block(0, make_pages({0: {0}}), G)  # Immix line 0 failed
        obj = SimObject(0, 300, pinned=True)  # spans lines 0-1
        block.place(obj, 0)
        obj.mark = 1
        block.rebuild_line_marks(epoch=1)
        assert block.line_states[0] == FAILED
        assert block.line_states[1] == LIVE_PINNED
        assert (obj.oid, 0) in block.mark_conflicts

    def test_sweep_resets_stale_conflicts(self):
        block = Block(0, make_pages({0: {0}}), G)
        obj = SimObject(0, 64, pinned=True)
        block.place(obj, 0)
        obj.mark = 1
        block.rebuild_line_marks(epoch=1)
        assert block.mark_conflicts == [(obj.oid, 0)]
        # The object dies; the next sweep clears the recorded conflict.
        block.rebuild_line_marks(epoch=2)
        assert block.mark_conflicts == []
        assert block.line_states[0] == FAILED

    def test_objects_overlapping_line(self):
        block = Block(0, make_pages(), G)
        a = SimObject(0, 300)
        block.place(a, 0)  # lines 0-1
        assert block.objects_overlapping_line(1) == [a]
        assert block.objects_overlapping_line(2) == []


class TestDynamicFailure:
    def test_dynamic_failure_flags_evacuation(self):
        block = Block(0, make_pages(), G)
        line, newly_failed = block.record_dynamic_failure(page_slot=1, pcm_offset=4)
        # Page 1 starts at Immix line 16; offset 4 -> line 17.
        assert line == 17
        assert newly_failed
        assert block.evacuate
        assert block.line_states[17] == FAILED

    def test_duplicate_pcm_failure_is_not_new(self):
        # PCM offsets 4 and 5 of page 1 both poison Immix line 17
        # (4 PCM lines per 256 B Immix line): the second hit is a
        # duplicate and must not re-flag the block for evacuation.
        block = Block(0, make_pages(), G)
        line1, new1 = block.record_dynamic_failure(page_slot=1, pcm_offset=4)
        assert (line1, new1) == (17, True)
        block.evacuate = False  # as if the forced collection already ran
        line2, new2 = block.record_dynamic_failure(page_slot=1, pcm_offset=5)
        assert (line2, new2) == (17, False)
        assert not block.evacuate
        assert block.line_states[17] == FAILED

    def test_page_slot_of_line(self):
        block = Block(0, make_pages(), G)
        assert block.page_slot_of_line(0) == 0
        assert block.page_slot_of_line(16) == 1
        assert block.page_slot_of_line(127) == 7


class TestMetrics:
    def test_usable_bytes(self):
        block = Block(0, make_pages({0: {0}}), G)
        assert block.usable_bytes() == (G.immix_lines_per_block - 1) * G.immix_line

    def test_wholly_free_requires_no_failures(self):
        assert Block(0, make_pages(), G).is_wholly_free()
        assert not Block(0, make_pages({0: {0}}), G).is_wholly_free()

    def test_largest_hole_bytes(self):
        block = Block(0, make_pages(), G)
        assert block.largest_hole_bytes() == G.block


@pytest.fixture
def collector_off():
    """Run with CPython's cyclic collector off, as a simulated cell does."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def class_blocks(collector):
    """Every block a mark-sweep collector's size classes hold."""
    return [block for space in collector._classes.values() for block in space.blocks]


@pytest.mark.usefixtures("collector_off")
class TestAcyclicBlock:
    """A block holds nothing that refers back to it, so a retired block is
    freed by reference counting the moment its last reference goes."""

    def test_retired_block_is_freed_when_dropped(self):
        table = HeapTable(G)
        block = Block(0, make_pages({0: {5}, 3: {0}}), G, table)
        block.line_summary()
        assert block.line_states[1] == FAILED
        ref = weakref.ref(block)
        table.retire(block.slot)
        del block
        assert ref() is None

    def test_swept_block_drops_its_extent_index(self):
        # A dead object still names its block; an extent index kept
        # past the sweep would close a cycle through it.
        table = HeapTable(G)
        block = Block(0, make_pages(), G, table)
        dead = SimObject(0, 64)
        block.place(dead, 0)
        assert block.objects_overlapping_line(0) == [dead]
        block.rebuild_line_marks(epoch=1)
        assert block.objects == [] and dead.block is block
        ref = weakref.ref(block)
        table.retire(block.slot)
        del block, dead
        assert ref() is None

    @pytest.mark.parametrize("collector", ("immix", "sticky-immix"))
    def test_block_an_immix_sweep_releases_is_freed(self, collector):
        vm = VirtualMachine(VmConfig(heap_bytes=1 * MiB, collector=collector))
        root = vm.alloc(64)
        vm.add_root(root)
        for _ in range(1200):
            vm.alloc(100)  # leaf garbage over several blocks
        blocks = list(vm.collector.blocks)
        assert len(blocks) > 2
        refs = [weakref.ref(block) for block in blocks]
        del blocks
        vm.collect(force_full=True)
        kept = [ref() for ref in refs if ref() is not None]
        assert kept == [root.block]
        assert vm.collector.blocks == kept

    @pytest.mark.parametrize("collector", ("marksweep", "sticky-marksweep"))
    def test_block_a_mark_sweep_sweep_retires_is_freed(self, collector):
        vm = VirtualMachine(VmConfig(heap_bytes=1 * MiB, collector=collector))
        root = vm.alloc(64)
        vm.add_root(root)
        # Fill whole blocks of the 128 B class, so no never-used cell
        # still names a block the sweep retires.
        cells = G.block // 128
        for _ in range(3 * cells):
            vm.alloc(100)
        blocks = [block for block in class_blocks(vm.collector) if root.block is not block]
        assert len(blocks) == 3
        refs = [weakref.ref(block) for block in blocks]
        del blocks
        vm.collect(force_full=True)
        assert [ref() for ref in refs] == [None, None, None]
        assert class_blocks(vm.collector) == [root.block]

    def test_write_through_line_states_invalidates_the_summary(self):
        block = Block(0, make_pages(), G)
        before = block.line_summary()
        block.line_states[40] = LIVE
        after = block.line_summary()
        assert after is not before
        assert after.free_lines == before.free_lines - 1
        assert (40, 1) not in after.runs and after.runs[0] == (0, 40)
        block.line_states[40:42] = bytes([FREE, FAILED])
        assert block.line_summary().runs[1] == (42, G.immix_lines_per_block - 42)
