"""Kernel-vs-oracle equivalence (property + edge-case tests).

The vectorized kernels in :mod:`repro.heap.line_table`,
:class:`repro.heap.block.Block`, and the OS failure table must be
bit-identical to the naive loops in :mod:`tests.heap.oracles` on every
input. Hypothesis drives arbitrary line tables; hand-built cases pin
the edges (empty, all-FAILED, all-FREE, single-line runs at both
boundaries).
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.geometry import Geometry
from repro.heap import line_table
from repro.heap.block import Block, sorted_defrag_candidates
from repro.heap.line_table import FAILED, FREE, LIVE, LIVE_PINNED
from repro.heap.object_model import ObjectFactory
from repro.heap.page_supply import HeapPage

from . import oracles
from .oracles import (
    MULTI_LINE_OBJECT_SIZES,
    build_synthetic_block,
    build_synthetic_failure_table,
    synthetic_line_tables,
)


def states(*chars):
    mapping = {".": FREE, "L": LIVE, "P": LIVE_PINNED, "X": FAILED}
    return bytearray(mapping[c] for c in "".join(chars))


#: Hand-built edge tables: the shapes most likely to break a scanning
#: kernel's boundary arithmetic.
EDGE_TABLES = [
    bytearray(),                     # empty
    states("."),                     # single free line
    states("X"),                     # single failed line
    states("...."),                  # all free
    states("XXXX"),                  # all failed
    states("LLLL"),                  # all live (no runs)
    states(".LLL"),                  # single-line run at the left edge
    states("LLL."),                  # single-line run at the right edge
    states(".LL."),                  # single-line runs at both edges
    states(".L.L."),                 # alternating, free at both edges
    states("L.L.L"),                 # alternating, live at both edges
    states("..XP..LX.."),            # mixed states, multiple runs
]


class TestScanEquivalence:
    @pytest.mark.parametrize("table", EDGE_TABLES, ids=repr)
    def test_edges(self, table):
        assert line_table.free_runs(table) == line_table.free_runs_reference(table)
        fast = line_table.free_run_summary(table)
        assert fast == oracles.free_run_summary_reference(table)
        assert line_table.fragmentation_index(
            table
        ) == oracles.fragmentation_index_reference(table)
        assert line_table.largest_free_run(
            table
        ) == oracles.largest_free_run_reference(table)

    @given(st.binary(min_size=0, max_size=600).map(bytearray))
    def test_free_runs_property(self, raw):
        table = bytearray(b % 4 for b in raw)
        assert line_table.free_runs(table) == line_table.free_runs_reference(table)

    @given(st.binary(min_size=0, max_size=600).map(bytearray))
    def test_summary_property(self, raw):
        table = bytearray(b % 4 for b in raw)
        fast = line_table.free_run_summary(table)
        assert fast == oracles.free_run_summary_reference(table)
        assert fast.free_lines == line_table.count_state(table, FREE)

    @given(st.binary(min_size=0, max_size=600).map(bytearray))
    def test_fragmentation_index_property(self, raw):
        table = bytearray(b % 4 for b in raw)
        # Bit-identical floats, not approximately equal: both paths must
        # execute the same final division.
        assert line_table.fragmentation_index(
            table
        ) == oracles.fragmentation_index_reference(table)

    def test_synthetic_profiles_agree(self):
        for immix_line in (64, 128, 256):
            geometry = Geometry(immix_line=immix_line)
            for table in synthetic_line_tables(
                geometry.immix_lines_per_block
            ).values():
                assert line_table.free_runs(
                    table
                ) == line_table.free_runs_reference(table)


# ======================================================================
# Block: cached summary, vectorized sweep, extent index
# ======================================================================
def fresh_block(geometry=None, failed=(3, 17)):
    geometry = geometry or Geometry()
    pages = [HeapPage(i) for i in range(geometry.pages_per_block)]
    block = Block(0, pages, geometry)
    oracles.mark_failed_lines(block, failed)
    for line in failed:
        block.line_states[line] = FAILED
    return block


class TestBlockSummaryCache:
    def test_cache_hit_returns_same_object(self):
        block = fresh_block()
        assert block.line_summary() is block.line_summary()

    def test_line_mutation_invalidates(self):
        block = fresh_block()
        before = block.line_summary()
        block.line_states[40] = LIVE
        block.touch_lines()
        after = block.line_summary()
        assert after is not before
        assert after.free_lines == before.free_lines - 1

    def test_place_keeps_summary_live(self):
        # Allocation never mutates line states, so the cached summary
        # must survive placements (the original code rescanned the
        # unchanged table; same answer either way).
        block = fresh_block()
        before = block.line_summary()
        block.place(ObjectFactory().make(64), 0)
        assert block.line_summary() is before

    def test_accessors_match_reference_mode(self):
        block = build_synthetic_block(Geometry(), seed=5)
        fast = (
            block.free_runs(),
            block.free_line_count(),
            block.usable_bytes(),
            block.largest_hole_bytes(),
            block.fragmentation_index(),
        )
        summary = oracles.free_run_summary_reference(block.line_states)
        line = block.geometry.immix_line
        reference = (
            summary.runs,
            summary.free_lines,
            summary.free_lines * line,
            summary.largest_run * line,
            oracles.fragmentation_index_reference(block.line_states),
        )
        assert fast == reference

    def test_reference_mode_bypasses_cache(self):
        # Mutate WITHOUT touching: the reference recount (what the heap
        # auditor compares against) must see the change the stale cache
        # misses, or the coherence check could never fire.
        block = fresh_block()
        cached = block.line_summary()
        block.line_states.table.lines[block.line_states.base + 40] = LIVE
        assert block.line_summary() is cached
        recount = oracles.free_run_summary_reference(block.line_states)
        assert recount.free_lines == cached.free_lines - 1 == block.n_lines - 3


def sweep_state(block):
    return (
        bytes(block.line_states),
        list(block.mark_conflicts),
        [obj.oid for obj in block.objects],
        block.allocated_since_gc,
    )


class TestSweepEquivalence:
    @pytest.mark.parametrize("immix_line", [64, 128, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_blocks(self, immix_line, seed):
        geometry = Geometry(immix_line=immix_line)
        fast = build_synthetic_block(geometry, seed, pinned_weight=0.2)
        reference = build_synthetic_block(geometry, seed, pinned_weight=0.2)
        # Kill a deterministic subset so the sweep drops objects too.
        for block in (fast, reference):
            rng = random.Random(seed)
            for obj in block.objects:
                if rng.random() < 0.3:
                    obj.mark = 0
        fast_counts = fast.rebuild_line_marks(1)
        reference_counts = oracles.rebuild_line_marks_reference(reference, 1)
        assert fast_counts == reference_counts
        assert sweep_state(fast) == sweep_state(reference)

    def test_multi_line_objects(self):
        geometry = Geometry(immix_line=64)
        fast = build_synthetic_block(
            geometry, 7, object_sizes=MULTI_LINE_OBJECT_SIZES
        )
        reference = build_synthetic_block(
            geometry, 7, object_sizes=MULTI_LINE_OBJECT_SIZES
        )
        assert fast.rebuild_line_marks(1) == oracles.rebuild_line_marks_reference(
            reference, 1
        )
        assert sweep_state(fast) == sweep_state(reference)

    def test_keep_old_sticky_sweep(self):
        fast = build_synthetic_block(Geometry(), 3)
        reference = build_synthetic_block(Geometry(), 3)
        for block in (fast, reference):
            for index, obj in enumerate(block.objects):
                obj.mark = 0
                obj.old = index % 3 == 0
        assert fast.rebuild_line_marks(
            9, keep_old=True
        ) == oracles.rebuild_line_marks_reference(reference, 9, keep_old=True)
        assert sweep_state(fast) == sweep_state(reference)

    def test_conflicts_recorded_for_survivor_on_failed_line(self):
        geometry = Geometry()
        fast = fresh_block(geometry, failed=(2,))
        reference = fresh_block(geometry, failed=(2,))
        for block in (fast, reference):
            obj = ObjectFactory().make(3 * geometry.immix_line, pinned=True)
            obj.oid = 99
            obj.mark = 1
            block.place(obj, geometry.immix_line)  # spans lines 1..3
        fast.rebuild_line_marks(1)
        oracles.rebuild_line_marks_reference(reference, 1)
        assert fast.mark_conflicts == [(99, 2)]
        assert sweep_state(fast) == sweep_state(reference)


@st.composite
def sweep_cases(draw):
    """A block description for the sweep property: line size, failed
    lines (lines 0 and n-1 often among them), objects laid out left to
    right as ``(gap, size, pinned, marked, old)``, and ``keep_old``."""
    immix_line = draw(st.sampled_from([64, 128, 256]))
    n = Geometry(immix_line=immix_line).immix_lines_per_block
    failed = draw(st.sets(st.integers(0, n - 1), max_size=12))
    if draw(st.booleans()):
        failed.add(0)
    if draw(st.booleans()):
        failed.add(n - 1)
    objects = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3 * immix_line),
                st.integers(1, 4 * immix_line),
                st.booleans(),
                st.booleans(),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    return immix_line, sorted(failed), objects, draw(st.booleans())


def described_block(immix_line, failed, objects):
    """Build a block from a :func:`sweep_cases` description. Failed
    lines enter through the fail marks alone, as in :func:`fresh_block`
    with no line-state write: the sweep must re-stamp them itself."""
    geometry = Geometry(immix_line=immix_line)
    pages = [HeapPage(i) for i in range(geometry.pages_per_block)]
    block = Block(0, pages, geometry)
    oracles.mark_failed_lines(block, failed)
    factory = ObjectFactory()
    cursor = 0
    for gap, size, pinned, marked, old in objects:
        obj = factory.make(size, pinned=pinned)
        offset = cursor + gap // 8 * 8
        if offset + obj.size > geometry.block:
            break
        obj.mark = 1 if marked else 0
        obj.old = old
        block.place(obj, offset)
        cursor = offset + obj.size
    return block


class TestSweepConflictProperty:
    @given(sweep_cases())
    def test_matches_reference(self, case):
        immix_line, failed, objects, keep_old = case
        fast = described_block(immix_line, failed, objects)
        reference = described_block(immix_line, failed, objects)
        assert fast.rebuild_line_marks(
            1, keep_old=keep_old
        ) == oracles.rebuild_line_marks_reference(reference, 1, keep_old=keep_old)
        assert sweep_state(fast) == sweep_state(reference)

    @pytest.mark.parametrize("keep_old", [False, True])
    def test_edge_lines_covered_only_by_pinned_spans(self, keep_old):
        geometry = Geometry()
        line = geometry.immix_line
        n = geometry.immix_lines_per_block
        # Pinned objects over lines 0..1 and n-2..n-1, an unpinned one
        # on line 4 touching no failed line, and a dead pinned one on
        # line 5: the only conflicts are the live pinned spans.
        objects = [
            (0, 2 * line - 8, True, True, False),
            (2 * line, line - 8, False, True, False),
            (0, line - 8, True, False, False),
            ((n - 8) * line, 2 * line - 8, True, not keep_old, keep_old),
        ]
        failed = [0, 5, n - 1]
        fast = described_block(line, failed, objects)
        reference = described_block(line, failed, objects)
        assert fast.rebuild_line_marks(
            1, keep_old=keep_old
        ) == oracles.rebuild_line_marks_reference(reference, 1, keep_old=keep_old)
        assert sweep_state(fast) == sweep_state(reference)
        first, last = fast.objects[0].oid, fast.objects[-1].oid
        assert fast.mark_conflicts == [(first, 0), (last, n - 1)]


class TestExtentIndex:
    def test_matches_reference_lookup(self):
        block = build_synthetic_block(Geometry(), seed=11)
        for line in range(block.n_lines):
            fast = [o.oid for o in block.objects_overlapping_line(line)]
            reference = [
                o.oid for o in oracles.objects_overlapping_line_reference(block, line)
            ]
            assert fast == reference

    def test_remove_object_invalidates(self):
        block = build_synthetic_block(Geometry(), seed=11)
        victim = block.objects[0]
        line = victim.offset // block.geometry.immix_line
        assert victim in block.objects_overlapping_line(line)
        block.remove_object(victim)
        assert victim not in block.objects_overlapping_line(line)

    def test_replace_objects_invalidates(self):
        block = build_synthetic_block(Geometry(), seed=11)
        keep = block.objects[: len(block.objects) // 2]
        block.replace_objects(list(keep))
        indexed, starts = block.extent_index()
        assert sorted(o.oid for o in indexed) == sorted(o.oid for o in keep)
        assert starts == sorted(starts)

    def test_duplicate_offsets_do_not_crash(self):
        # A corrupted heap (two objects at one offset) must still index:
        # the auditor reports the overlap instead of dying inside sort.
        block = fresh_block()
        factory = ObjectFactory()
        for _ in range(2):
            block.place(factory.make(64), 128)
        objs, _starts = block.extent_index()
        assert len(objs) == 2
        assert block.objects_overlapping_line(0)


class TestDefragOrdering:
    def test_matches_plain_sorted_and_keeps_tie_order(self):
        from repro.heap.block import sort_key_most_holes

        blocks = [build_synthetic_block(Geometry(), seed=s) for s in range(6)]
        blocks += [fresh_block(), fresh_block()]  # guaranteed tie pair
        expected = sorted(blocks, key=sort_key_most_holes)
        assert sorted_defrag_candidates(blocks) == expected
        assert sorted_defrag_candidates(
            blocks
        ) == oracles.sorted_defrag_candidates_reference(blocks)


# ======================================================================
# OS failure table
# ======================================================================
class TestFailureTableEquivalence:
    def test_decode_matches_reference(self):
        table = build_synthetic_failure_table(Geometry(), seed=4)
        pages = table.imperfect_pages()
        fast = (
            table.failed_line_count(),
            table.compressed_size_bytes(),
            {page: set(table.failed_offsets(page)) for page in pages},
        )
        reference = (
            oracles.failed_line_count_reference(table),
            oracles.compressed_size_bytes_reference(table),
            {page: set(oracles.failed_offsets_reference(table, page)) for page in pages},
        )
        assert fast == reference
        assert pages == oracles.imperfect_pages_reference(table)

    def test_incremental_count_tracks_records(self):
        geometry = Geometry()
        table = build_synthetic_failure_table(geometry, failures=50, seed=2)
        before = table.failed_line_count()
        page = table.imperfect_pages()[0]
        # Recording an already-failed line must not double count.
        offset = next(iter(table.failed_offsets(page)))
        table.record_failure(page, offset)
        assert table.failed_line_count() == before
        fresh = next(p for p in range(table.n_pages) if table.is_perfect(p))
        table.record_failure(fresh, 0)
        assert table.failed_line_count() == before + 1
        assert table.failed_line_count() == oracles.failed_line_count_reference(
            table
        )

    def test_restore_round_trip(self):
        geometry = Geometry()
        table = build_synthetic_failure_table(geometry, failures=80, seed=6)
        from repro.osim.failure_table import FailureTable

        restored = FailureTable.restore(table.save(), table.n_pages, geometry)
        assert restored.failed_line_count() == table.failed_line_count()
        assert restored.compressed_size_bytes() == table.compressed_size_bytes()
