"""The sweep's reuse of a block's last sweep, against the per-line oracle.

``Block.rebuild_line_marks`` re-derives only what changed since the
block's last sweep: an untouched block returns the recorded counts, a
block that was only appended to merges the new objects' spans, and
anything else is rebuilt. Two identical blocks are driven through the
same operation sequence, one swept by the kernel and one by
``rebuild_line_marks_reference`` (which always rebuilds), and every
sweep must leave both in the same state.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.geometry import Geometry
from repro.heap.block import Block
from repro.heap.object_model import ObjectFactory, aligned_size
from repro.heap.page_supply import HeapPage

from . import oracles


def sweep_state(block, counts):
    return (
        counts,
        bytes(block.line_states),
        [obj.oid for obj in block.objects],
        list(block.mark_conflicts),
        block.allocated_since_gc,
    )


class Twins:
    """A kernel-swept block and an oracle-swept block, kept identical."""

    def __init__(self, immix_line):
        self.geometry = Geometry(immix_line=immix_line)
        self.blocks = [self._block(), self._block()]
        self.factories = [ObjectFactory(), ObjectFactory()]
        self.cursor = 0
        self.epoch = 1

    def _block(self):
        geometry = self.geometry
        pages = [HeapPage(i) for i in range(geometry.pages_per_block)]
        return Block(0, pages, geometry)

    def append(self, gap, size, pinned, marked, old):
        offset = self.cursor + gap // 8 * 8
        if offset + aligned_size(size) > self.geometry.block:
            return
        for block, factory in zip(self.blocks, self.factories):
            obj = factory.make(size, pinned=pinned)
            obj.mark = self.epoch if marked else 0
            obj.old = old
            block.place(obj, offset)
        self.cursor = offset + obj.size

    def mark(self, seed, advance):
        """Mark a random subset at the (possibly new) epoch; the rest
        keep their old mark, so they die unless old under ``keep_old``."""
        if advance:
            self.epoch += 1
        for block in self.blocks:
            rng = random.Random(seed)
            for obj in block.objects:
                if rng.random() < 0.8:
                    obj.mark = self.epoch

    def age(self, seed):
        for block in self.blocks:
            rng = random.Random(seed)
            for obj in block.objects:
                obj.old = rng.random() < 0.5

    def fail(self, page_slot, pcm_offset):
        results = [
            block.record_dynamic_failure(page_slot, pcm_offset)
            for block in self.blocks
        ]
        assert results[0] == results[1]

    def remove(self, index):
        for block in self.blocks:
            if block.objects:
                block.remove_object(block.objects[index % len(block.objects)])

    def reassign(self, through_method):
        for block in self.blocks:
            if through_method:
                block.replace_objects(list(block.objects))
            else:
                block.objects = list(block.objects)

    def grow(self, appends, keep_old):
        """Append a few objects, then sweep: the appended-only path
        whenever the last sweep's survivors all still survive."""
        for args in appends:
            self.append(*args)
        self.sweep(keep_old)

    def sweep(self, keep_old):
        fast, reference = self.blocks
        fast_counts = fast.rebuild_line_marks(self.epoch, keep_old=keep_old)
        reference_counts = oracles.rebuild_line_marks_reference(
            reference, self.epoch, keep_old=keep_old
        )
        assert sweep_state(fast, fast_counts) == sweep_state(
            reference, reference_counts
        )


def operations(immix_line):
    geometry = Geometry(immix_line=immix_line)
    object_args = st.tuples(
        st.integers(0, 2 * immix_line),
        st.integers(1, 3 * immix_line),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    append = object_args.map(lambda args: ("append",) + args)
    return st.one_of(
        append,
        append,
        st.tuples(
            st.just("grow"), st.lists(object_args, min_size=1, max_size=5), st.booleans()
        ),
        st.tuples(
            st.just("grow"), st.lists(object_args, min_size=1, max_size=5), st.booleans()
        ),
        st.tuples(st.just("mark"), st.integers(0, 2**16), st.booleans()),
        st.tuples(st.just("age"), st.integers(0, 2**16)),
        st.tuples(
            st.just("fail"),
            st.integers(0, geometry.pages_per_block - 1),
            st.integers(0, geometry.lines_per_page - 1),
        ),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
        st.tuples(st.just("reassign"), st.booleans()),
        st.tuples(st.just("sweep"), st.booleans()),
        st.tuples(st.just("sweep"), st.booleans()),
    )


@st.composite
def scripts(draw):
    immix_line = draw(st.sampled_from([64, 128, 256]))
    return immix_line, draw(st.lists(operations(immix_line), max_size=40))


class TestSweepReuseMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(scripts())
    def test_every_sweep_matches_the_oracle(self, script):
        immix_line, ops = script
        twins = Twins(immix_line)
        for name, *args in ops:
            getattr(twins, name)(*args)
        # Sweep twice more, both ways: the repeats take the unchanged path.
        for keep_old in (False, False, True, True):
            twins.sweep(keep_old)


def swept_block(n_objects=12, size=100, pinned_every=0):
    """A block of marked objects laid end to end from offset 0, swept."""
    twins = Twins(128)
    for index in range(n_objects):
        pinned = bool(pinned_every) and index % pinned_every == 0
        twins.append(0, size, pinned, True, False)
    twins.sweep(False)
    return twins


class TestSweepPaths:
    def test_unchanged_sweep_writes_nothing(self):
        twins = swept_block()
        block = twins.blocks[0]
        objects, line_gen, obj_gen = block.objects, block._line_gen, block._obj_gen
        table_gen = block.table.generation
        conflicts = block.mark_conflicts
        block.allocated_since_gc = True
        twins.sweep(False)
        assert block.objects is objects
        assert block.mark_conflicts is conflicts
        assert (block._line_gen, block._obj_gen) == (line_gen, obj_gen)
        assert block.table.generation == table_gen
        assert not block.allocated_since_gc

    def test_unchanged_sweep_under_keep_old(self):
        twins = swept_block()
        for block in twins.blocks:
            for obj in block.objects:
                obj.old = True
        twins.epoch += 1
        line_gen = twins.blocks[0]._line_gen
        twins.sweep(True)
        assert twins.blocks[0]._line_gen == line_gen

    def test_appended_sweep_keeps_the_list(self):
        twins = swept_block()
        block = twins.blocks[0]
        objects = block.objects
        twins.append(0, 300, False, True, False)
        twins.append(0, 40, True, True, False)
        twins.append(0, 40, False, False, False)  # dies in the suffix
        twins.sweep(False)
        assert block.objects is objects
        assert len(objects) == 14

    def test_appended_suffix_over_a_failed_line_adds_its_conflicts(self):
        twins = swept_block(pinned_every=5)
        geometry = twins.geometry
        # Line 0 fails under the first two objects, and the line just
        # past the cursor fails with nothing on it yet.
        line = twins.cursor // 128 + 1
        twins.fail(0, 0)
        twins.fail(line * 128 // geometry.page, line * 128 % geometry.page // 64)
        twins.sweep(False)
        # A pinned object appended across the second failed line: its
        # conflict follows the prefix's.
        twins.append(0, 256, True, True, False)
        twins.sweep(False)
        fast = twins.blocks[0]
        first, second, last = fast.objects[0], fast.objects[1], fast.objects[-1]
        assert fast.mark_conflicts == [(first.oid, 0), (second.oid, 0), (last.oid, line)]

    def test_prefix_death_rebuilds(self):
        twins = swept_block()
        block = twins.blocks[0]
        objects = block.objects
        for twin_block in twins.blocks:
            twin_block.objects[3].mark = 0
        twins.append(0, 64, False, True, False)
        twins.sweep(False)
        assert block.objects is not objects
        assert len(block.objects) == 12

    def test_removal_then_append_rebuilds(self):
        twins = swept_block()
        block = twins.blocks[0]
        objects = block.objects
        twins.remove(0)
        twins.append(0, 64, False, True, False)
        twins.sweep(False)
        assert block.objects is not objects

    def test_new_failed_line_rebuilds(self):
        twins = swept_block()
        block = twins.blocks[0]
        objects = block.objects
        twins.fail(0, 0)
        twins.sweep(False)
        assert block.objects is not objects
        assert block.mark_conflicts[0][1] == 0
