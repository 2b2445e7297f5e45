"""Tests for the (failure-aware) Immix collector."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors.immix import ImmixCollector, ImmixConfig
from repro.hardware.geometry import Geometry
from repro.heap.object_model import ObjectFactory

from .conftest import assert_heap_consistent, build_supply

G = Geometry()


def make_collector(n_blocks=8, failure_map=None, generational=False, **cfg):
    supply = build_supply(n_blocks, failure_map)
    config = ImmixConfig(generational=generational, **cfg)
    return ImmixCollector(supply, G, config=config), ObjectFactory()


class TestAllocation:
    def test_small_objects_bump_contiguously(self):
        collector, factory = make_collector()
        a = factory.make(24)
        b = factory.make(24)
        assert collector.allocate(a) and collector.allocate(b)
        assert a.block is b.block
        assert b.offset == a.offset + a.size
        assert collector.stats.fast_path_allocs == 2

    def test_allocation_skips_failed_lines(self):
        # Page 0 fully failed: first 16 Immix lines unusable.
        failure_map = {0: set(range(G.lines_per_page))}
        collector, factory = make_collector(failure_map=failure_map)
        obj = factory.make(24)
        assert collector.allocate(obj)
        assert obj.offset >= G.page

    def test_allocation_around_scattered_holes(self):
        # Fail PCM line 0 of every page of block 0.
        failure_map = {page: {0} for page in range(G.pages_per_block)}
        collector, factory = make_collector(failure_map=failure_map)
        placed = []
        for _ in range(200):
            obj = factory.make(200)
            assert collector.allocate(obj)
            placed.append(obj)
        assert_heap_consistent(collector)

    def test_medium_object_uses_overflow_block(self):
        collector, factory = make_collector()
        small = factory.make(24)
        collector.allocate(small)
        # Fill the current run artificially by allocating a run-sized
        # object: with a fresh block the run is the whole block, so
        # instead verify the overflow stat path with a medium object
        # that does fit (fast path) vs one diverted after a run change.
        medium = factory.make(1000)
        assert collector.allocate(medium)
        assert collector.stats.objects_allocated == 2

    def test_large_objects_go_to_los(self):
        collector, factory = make_collector()
        big = factory.make(20 * 1024)
        assert collector.allocate(big)
        assert big.is_large
        assert collector.stats.los_allocs == 1
        assert len(collector.los) == 1

    def test_exhaustion_returns_false(self):
        collector, factory = make_collector(n_blocks=1)
        placed = 0
        while collector.allocate(factory.make(2000)):
            placed += 1
        assert placed > 0
        # 1 block = 32 KB minus metadata rounding.
        assert placed <= 32 * 1024 // 2008


class TestHighFailureRates:
    def test_run_of_fully_failed_blocks_finishes_or_dnfs(self):
        # At 99% failures thousands of fully failed blocks come in a
        # row; skipping them once took one stack frame per block and
        # overflowed Python's recursion limit.
        from repro.faults.generator import FailureModel
        from repro.sim.machine import RunConfig, run_benchmark

        model = FailureModel(rate=0.99, hw_region_pages=2)
        result = run_benchmark(RunConfig(workload="pmd", failure_model=model, scale=0.02))
        assert result.completed or result.failure_note


class TestCollection:
    def run_churn(self, collector, factory, n=2000, live_target=200, seed=0,
                  sizes=(24, 64, 120, 500)):
        rng = random.Random(seed)
        roots = []
        for _ in range(n):
            obj = factory.make(rng.choice(sizes))
            if not collector.allocate(obj):
                collector.collect(roots)
                assert collector.allocate(obj)
            roots.append(obj)
            if len(roots) > live_target:
                roots.pop(rng.randrange(len(roots)))
        return roots

    def test_collection_reclaims_dead(self):
        collector, factory = make_collector(n_blocks=4)
        roots = self.run_churn(collector, factory)
        assert collector.stats.collections > 0
        collector.collect_full(roots)
        live_in_blocks = sum(len(b.objects) for b in collector.blocks)
        assert live_in_blocks == len([r for r in roots if not r.is_large])
        assert_heap_consistent(collector)

    def test_empty_blocks_release_pages(self):
        collector, factory = make_collector(n_blocks=4)
        self.run_churn(collector, factory, live_target=10)
        collector.collect_full([])
        # Everything dead: all pages back in the supply.
        assert collector.supply.available_pages() == 4 * G.pages_per_block
        assert collector.blocks == []

    def test_full_collection_marks_survivors_old(self):
        collector, factory = make_collector()
        obj = factory.make(64)
        collector.allocate(obj)
        collector.collect_full([obj])
        assert obj.old

    def test_collection_with_failures_preserves_invariants(self):
        failure_map = {page: {1, 7, 30} for page in range(2 * G.pages_per_block)}
        collector, factory = make_collector(n_blocks=6, failure_map=failure_map)
        roots = self.run_churn(collector, factory, n=3000, live_target=300)
        collector.collect_full(roots)
        assert_heap_consistent(collector)

    def test_stats_track_sweeping(self):
        collector, factory = make_collector()
        obj = factory.make(64)
        collector.allocate(obj)
        collector.collect_full([obj])
        assert collector.stats.lines_swept >= G.immix_lines_per_block
        assert collector.stats.blocks_swept >= 1


class TestSticky:
    def test_nursery_collects_young_dead(self):
        collector, factory = make_collector(generational=True)
        keep = factory.make(64)
        collector.allocate(keep)
        dead = [factory.make(64) for _ in range(10)]
        for obj in dead:
            collector.allocate(obj)
        result = collector.collect_nursery([keep])
        assert result["kind"] == "nursery"
        assert keep.old
        live_objs = {o.oid for b in collector.blocks for o in b.objects}
        assert keep.oid in live_objs
        for obj in dead:
            assert obj.oid not in live_objs

    def test_old_objects_implicitly_live_in_nursery(self):
        collector, factory = make_collector(generational=True)
        elder = factory.make(64)
        collector.allocate(elder)
        collector.collect_full([elder])
        assert elder.old
        # A nursery collection with *no* roots must keep the old object.
        collector.collect_nursery([])
        live_objs = {o.oid for b in collector.blocks for o in b.objects}
        assert elder.oid in live_objs

    def test_remset_keeps_young_reachable_from_old(self):
        collector, factory = make_collector(generational=True)
        parent = factory.make(64)
        collector.allocate(parent)
        collector.collect_full([parent])
        child = factory.make(64)
        collector.allocate(child)
        parent.add_ref(child)
        collector.write_barrier(parent, child)
        collector.collect_nursery([])
        live_objs = {o.oid for b in collector.blocks for o in b.objects}
        assert child.oid in live_objs
        assert child.old

    def test_without_barrier_young_child_of_old_dies(self):
        # Documents why the write barrier is required.
        collector, factory = make_collector(generational=True)
        parent = factory.make(64)
        collector.allocate(parent)
        collector.collect_full([parent])
        child = factory.make(64)
        collector.allocate(child)
        parent.add_ref(child)  # no barrier!
        collector.collect_nursery([])
        live_objs = {o.oid for b in collector.blocks for o in b.objects}
        assert child.oid not in live_objs

    def test_survivor_copying_compacts(self):
        collector, factory = make_collector(generational=True)
        keep = []
        for _ in range(50):
            obj = factory.make(64)
            collector.allocate(obj)
            keep.append(obj)
            for _ in range(5):
                collector.allocate(factory.make(64))
        collector.collect_nursery(keep)
        assert collector.stats.objects_copied > 0
        assert_heap_consistent(collector)

    def test_pinned_survivors_not_copied(self):
        collector, factory = make_collector(generational=True)
        pinned = factory.make(64, pinned=True)
        collector.allocate(pinned)
        where = (pinned.block, pinned.offset)
        collector.collect_nursery([pinned])
        assert (pinned.block, pinned.offset) == where
        assert pinned.moved_count == 0


class TestDynamicFailures:
    def test_block_failure_flags_evacuation(self):
        collector, factory = make_collector()
        obj = factory.make(64)
        collector.allocate(obj)
        page = obj.block.pages[0]
        needs_gc = collector.note_dynamic_failure(page.index, 0)
        assert needs_gc
        assert obj.block.evacuate

    def test_evacuation_moves_objects_off_failed_line(self):
        collector, factory = make_collector()
        obj = factory.make(64)
        collector.allocate(obj)
        block = obj.block
        page = block.pages[0]
        collector.note_dynamic_failure(page.index, 0)  # poisons line 0
        collector.collect_full([obj])
        assert obj.moved_count == 1
        assert obj.block is not block or 0 not in obj.line_span(G.immix_line)
        assert_heap_consistent(collector)

    def test_pinned_object_is_not_evacuated(self):
        collector, factory = make_collector()
        obj = factory.make(64, pinned=True)
        collector.allocate(obj)
        page = obj.block.pages[0]
        collector.note_dynamic_failure(page.index, 0)
        collector.collect_full([obj])
        assert obj.moved_count == 0
        assert collector.stats.evacuations_aborted == 0  # pinned skipped, not aborted

    def test_aborted_evacuations_follow_the_pinned_objects_in_order(self):
        # One block and no free pages: every copy fails, so each
        # unpinned object is restored in place, after the pinned ones.
        collector, factory = make_collector(n_blocks=1)
        objs = [factory.make(64, pinned=i in (0, 3, 5)) for i in range(6)]
        for obj in objs:
            assert collector.allocate(obj)
        block = objs[0].block
        offsets = [obj.offset for obj in objs]
        assert collector.note_dynamic_failure(block.pages[0].index, 0)
        collector.collect_full(objs)
        pinned, unpinned = [objs[i] for i in (0, 3, 5)], [objs[i] for i in (1, 2, 4)]
        assert block.objects == pinned + unpinned
        assert [obj.offset for obj in objs] == offsets
        assert block.aborted_evacuations == {obj.oid for obj in unpinned}
        assert collector.stats.evacuations_aborted == 3
        assert not block.evacuate
        # Line 0 failed under o0..o3: the pinned ones, then the restored.
        assert block.mark_conflicts == [(objs[i].oid, 0) for i in (0, 3, 1, 2)]

    def test_los_page_failure_reallocates_object(self):
        collector, factory = make_collector()
        big = factory.make(20 * 1024)
        collector.allocate(big)
        page = big.los_placement.pages[0]
        old_base = big.los_placement.virtual_base
        needs_gc = collector.note_dynamic_failure(page.index, 3)
        assert not needs_gc
        assert big.moved_count == 1
        assert big.los_placement.virtual_base != old_base
        assert all(p.is_perfect for p in big.los_placement.pages)

    def test_failure_on_unknown_page_ignored(self):
        collector, _ = make_collector()
        assert not collector.note_dynamic_failure(99999, 0)

    def test_los_sweep_keeps_directory_entry_of_transmuted_page(self):
        # Only page 0 is perfect; every other page has a hole.
        collector, factory = make_collector(
            n_blocks=2,
            failure_map={i: {0} for i in range(1, 2 * G.pages_per_block)},
            large_threshold=2048,
        )
        dead = factory.make(3000)
        assert collector.allocate(dead)  # takes perfect page 0
        live = factory.make(3000)
        assert collector.allocate(live, after_gc=True)  # no perfect left: borrows
        borrowed_index = live.los_placement.pages[0].index
        assert borrowed_index < 0
        assert collector.page_directory[borrowed_index] == ("los", live)
        # Sweeping the dead object releases perfect page 0 while debt is
        # outstanding: the borrowed placement silently becomes page 0.
        live.mark = 5
        collector._sweep_los(epoch=5, keep_old=False)
        page = live.los_placement.pages[0]
        assert page.index == 0 and not page.borrowed
        # The directory must follow the re-key — the dead object's late
        # cleanup must not clobber the live holder's entry — so a
        # dynamic failure on page 0 still reaches the live object.
        assert collector.page_directory[0] == ("los", live)
        assert not collector.note_dynamic_failure(0, 3)
        assert live.moved_count == 1


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=3))
    def test_random_churn_preserves_invariants(self, seed, fail_case):
        failure_map = {}
        if fail_case:
            rng = random.Random(fail_case)
            for page in range(4 * G.pages_per_block):
                failure_map[page] = {
                    off for off in range(G.lines_per_page) if rng.random() < 0.1
                }
        collector, factory = make_collector(
            n_blocks=4, failure_map=failure_map, generational=True
        )
        rng = random.Random(seed)
        roots = []
        for _ in range(800):
            size = rng.choice([24, 56, 120, 400, 900, 3000])
            obj = factory.make(size, pinned=rng.random() < 0.02)
            if not collector.allocate(obj):
                collector.collect(roots)
                if not collector.allocate(obj):
                    collector.collect(roots, force_full=True)
                    if not collector.allocate(obj):
                        break
            roots.append(obj)
            if len(roots) > 60:
                roots.pop(rng.randrange(len(roots)))
        collector.collect_full(roots)
        assert_heap_consistent(collector)
        live_small = {r.oid for r in roots if not r.is_large}
        in_blocks = {o.oid for b in collector.blocks for o in b.objects}
        assert live_small == in_blocks


class TestAddressIndependence:
    def test_survivor_compaction_ignores_block_hash_order(self, monkeypatch):
        """Results must not depend on how blocks hash.

        Default hashing follows ``id()``, so any iteration over a set of
        blocks shifts with object addresses. This full-scale cell (pmd,
        50% failures, 2-page clustering) is one where sticky Immix
        survivor compaction empties several source blocks; with the
        release order following the hash, the two orderings below
        produce different results.
        """
        import json

        from repro.faults.generator import FailureModel
        from repro.heap.block import Block
        from repro.sim.cache import result_to_dict
        from repro.sim.machine import RunConfig, run_benchmark

        config = RunConfig(
            workload="pmd",
            heap_multiplier=2.0,
            scale=1.0,
            seed=20,
            failure_model=FailureModel(rate=0.5, hw_region_pages=2),
        )
        canonical = []
        for order in (
            lambda block: block.virtual_index,
            lambda block: (1 << 40) - 7919 * block.virtual_index,
        ):
            monkeypatch.setattr(Block, "__hash__", order)
            result = run_benchmark(config)
            canonical.append(json.dumps(result_to_dict(result), sort_keys=True))
        assert canonical[0] == canonical[1]
