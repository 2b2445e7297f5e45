"""Tests for the simulated object model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.heap.object_model import (
    ALIGNMENT,
    HEADER_BYTES,
    ObjectFactory,
    SimObject,
    aligned_size,
)

from .oracles import reachable_from


class TestAlignedSize:
    def test_includes_header(self):
        assert aligned_size(0) == HEADER_BYTES

    def test_rounds_to_alignment(self):
        assert aligned_size(1) % ALIGNMENT == 0
        assert aligned_size(24) == 32  # 24 + 8 header

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            aligned_size(-1)

    @given(st.integers(min_value=0, max_value=1 << 20))
    def test_always_aligned_and_sufficient(self, size):
        total = aligned_size(size)
        assert total % ALIGNMENT == 0
        assert total >= size + HEADER_BYTES


class TestSimObject:
    def test_unplaced_has_no_address(self):
        obj = SimObject(0, 64)
        assert obj.address is None
        assert not obj.is_large

    def test_line_span_requires_placement(self):
        obj = SimObject(0, 64)
        with pytest.raises(ValueError):
            obj.line_span(256)

    def test_line_span_spans_lines(self):
        class FakeBlock:
            virtual_base = 0

        obj = SimObject(0, 300)
        obj.block = FakeBlock()
        obj.offset = 200
        # Bytes 200..499 with 256 B lines -> lines 0 and 1.
        assert list(obj.line_span(256)) == [0, 1]

    def test_refs(self):
        a, b = SimObject(0, 16), SimObject(1, 16)
        a.add_ref(b)
        assert a.refs == [b]
        a.clear_refs()
        assert not a.refs

    def test_fresh_object_refs_are_empty_and_iterable(self):
        a, b = SimObject(0, 16), SimObject(1, 16)
        assert not a.refs
        assert list(a.refs) == []
        # Leaves share one empty tuple rather than a list each.
        assert a.refs is b.refs

    def test_first_ref_gives_the_object_its_own_list(self):
        a, b, c = SimObject(0, 16), SimObject(1, 16), SimObject(2, 16)
        a.add_ref(b)
        refs = a.refs
        a.add_ref(c)
        assert a.refs is refs
        assert a.refs == [b, c]
        assert not b.refs and not c.refs

    def test_cleared_object_takes_refs_again(self):
        a, b = SimObject(0, 16), SimObject(1, 16)
        a.add_ref(b)
        a.clear_refs()
        a.add_ref(b)
        assert a.refs == [b]

    def test_repr_mentions_pin(self):
        assert "pinned" in repr(SimObject(0, 16, pinned=True))


class TestObjectFactory:
    def test_unique_ids_and_totals(self):
        factory = ObjectFactory()
        a = factory.make(24)
        b = factory.make(24)
        assert a.oid != b.oid
        assert factory.allocated_objects == 2
        assert factory.allocated_bytes == a.size + b.size


class TestReachability:
    def build_graph(self):
        objs = [SimObject(i, 16) for i in range(6)]
        # 0 -> 1 -> 2, 3 -> 4, 5 isolated.
        objs[0].add_ref(objs[1])
        objs[1].add_ref(objs[2])
        objs[3].add_ref(objs[4])
        return objs

    def test_transitive_closure(self):
        objs = self.build_graph()
        live = reachable_from([objs[0]], epoch=1)
        assert {o.oid for o in live} == {0, 1, 2}
        assert all(o.mark == 1 for o in live)
        assert objs[5].mark == 0

    def test_multiple_roots(self):
        objs = self.build_graph()
        live = reachable_from([objs[0], objs[3]], epoch=2)
        assert {o.oid for o in live} == {0, 1, 2, 3, 4}

    def test_cycles_terminate(self):
        a, b = SimObject(0, 16), SimObject(1, 16)
        a.add_ref(b)
        b.add_ref(a)
        live = reachable_from([a], epoch=7)
        assert {o.oid for o in live} == {0, 1}

    def test_epoch_isolation(self):
        objs = self.build_graph()
        reachable_from([objs[0]], epoch=1)
        live = reachable_from([objs[0]], epoch=2)
        assert {o.oid for o in live} == {0, 1, 2}

    def test_already_marked_roots_skipped(self):
        a = SimObject(0, 16)
        a.mark = 3
        assert reachable_from([a], epoch=3) == []
