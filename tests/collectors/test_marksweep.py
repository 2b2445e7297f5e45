"""Tests for the mark-sweep baseline."""

import random

import pytest

from repro.collectors.marksweep import (
    SIZE_CLASSES,
    MarkSweepCollector,
    size_class_for,
)
from repro.hardware.geometry import Geometry
from repro.heap.object_model import ObjectFactory

from .conftest import build_supply

G = Geometry()


def make_ms(n_blocks=8, failure_map=None, **kwargs):
    supply = build_supply(n_blocks, failure_map)
    return MarkSweepCollector(supply, G, **kwargs), ObjectFactory()


class TestSizeClasses:
    def test_monotonic(self):
        assert list(SIZE_CLASSES) == sorted(SIZE_CLASSES)

    def test_smallest_fit(self):
        assert size_class_for(16) == 16
        assert size_class_for(17) == 24
        assert size_class_for(8192) == 8192

    def test_large_is_none(self):
        assert size_class_for(8193) is None

    def test_lookup_matches_a_scan_of_the_classes(self):
        def scan(size):
            return next((cls for cls in SIZE_CLASSES if size <= cls), None)

        for size in range(-8, SIZE_CLASSES[-1] + 16):
            assert size_class_for(size) == scan(size), size


class TestAllocation:
    def test_objects_of_same_class_share_blocks(self):
        ms, factory = make_ms()
        a = factory.make(24)  # -> 32 B class
        b = factory.make(20)  # -> 32 B class
        ms.allocate(a)
        ms.allocate(b)
        assert a.block is b.block
        assert b.offset - a.offset == 32

    def test_classes_use_distinct_blocks(self):
        ms, factory = make_ms()
        small = factory.make(24)
        big = factory.make(1000)
        ms.allocate(small)
        ms.allocate(big)
        assert small.block is not big.block

    def test_internal_fragmentation_tracked(self):
        ms, factory = make_ms()
        obj = factory.make(25)  # 40 B with header -> 48 B class
        ms.allocate(obj)
        assert ms.stats.freelist_waste_bytes == 48 - obj.size

    def test_large_objects_to_los(self):
        ms, factory = make_ms()
        obj = factory.make(16 * 1024)
        assert ms.allocate(obj)
        assert obj.is_large

    def test_exhaustion(self):
        ms, factory = make_ms(n_blocks=1)
        count = 0
        while ms.allocate(factory.make(1000)):
            count += 1
        assert count == 32 * 1024 // 1024  # one block of 1 KB cells


class TestCollection:
    def test_full_collection_recycles_cells(self):
        ms, factory = make_ms(n_blocks=2)
        keep = factory.make(56)
        ms.allocate(keep)
        for _ in range(100):
            ms.allocate(factory.make(56))
        ms.collect_full([keep])
        census = ms.heap_census()
        assert census["free_cells"] > 0
        # Allocation reuses freed cells without growing the heap.
        blocks_before = census["blocks"]
        for _ in range(50):
            assert ms.allocate(factory.make(56))
        assert ms.heap_census()["blocks"] == blocks_before

    def test_empty_blocks_release_pages(self):
        ms, factory = make_ms(n_blocks=2)
        for _ in range(100):
            ms.allocate(factory.make(56))
        ms.collect_full([])
        assert ms.heap_census()["blocks"] == 0
        assert ms.supply.available_pages() == 2 * G.pages_per_block

    def test_churn_completes_in_fixed_heap(self):
        ms, factory = make_ms(n_blocks=4)
        rng = random.Random(1)
        roots = []
        for _ in range(5000):
            obj = factory.make(rng.choice([24, 56, 120, 500]))
            if not ms.allocate(obj):
                ms.collect(roots)
                assert ms.allocate(obj)
            roots.append(obj)
            if len(roots) > 150:
                roots.pop(rng.randrange(len(roots)))
        assert ms.stats.collections > 0
        assert ms.stats.cells_swept > 0

    def test_sticky_nursery(self):
        ms, factory = make_ms(generational=True)
        keep = factory.make(56)
        ms.allocate(keep)
        dead = [factory.make(56) for _ in range(20)]
        for obj in dead:
            ms.allocate(obj)
        result = ms.collect_nursery([keep])
        assert result["kind"] == "nursery"
        assert keep.old
        free_cells = ms.heap_census()["free_cells"]
        assert free_cells >= 20

    def test_sticky_remset(self):
        ms, factory = make_ms(generational=True)
        parent = factory.make(56)
        ms.allocate(parent)
        ms.collect_full([parent])
        child = factory.make(56)
        ms.allocate(child)
        parent.add_ref(child)
        ms.write_barrier(parent, child)
        ms.collect_nursery([])
        assert child.old
        assert child.block is not None


class TestFailureAwareFreeList:
    def test_cells_overlapping_failures_skipped(self):
        # Fail the first PCM line of page 0: Immix line 0 (256 B) dies,
        # killing cells that overlap bytes 0..255.
        failure_map = {0: {0}}
        ms, factory = make_ms(failure_map=failure_map, failure_aware=True)
        obj = factory.make(56)  # 64 B cells
        ms.allocate(obj)
        assert obj.offset >= 256

    def test_large_cells_amplify_waste(self):
        # One failed 64 B line kills a whole 4 KB cell: the paper's
        # granularity-mismatch argument (section 3.3.1).
        failure_map = {0: {0}}
        ms, factory = make_ms(failure_map=failure_map, failure_aware=True)
        obj = factory.make(4000)  # 4 KB class
        ms.allocate(obj)
        assert obj.offset >= 4096

    def test_unaware_collector_would_use_failed_cells(self):
        failure_map = {0: {0}}
        ms, factory = make_ms(failure_map=failure_map, failure_aware=False)
        obj = factory.make(56)
        ms.allocate(obj)
        assert obj.offset == 0  # lands on the failure: why awareness matters
