"""Tests for the failure-map abstraction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.faults.maps import FailureMap, coarsen
from repro.hardware.geometry import Geometry

G = Geometry()  # 64 B PCM lines, 256 B Immix lines, 4 KB pages


class TestBasics:
    def test_empty_map(self):
        fmap = FailureMap(100)
        assert fmap.failed_count == 0
        assert fmap.failure_rate == 0.0
        assert not fmap.is_failed(0)

    def test_failed_lines_recorded(self):
        fmap = FailureMap(100, [3, 7])
        assert fmap.is_failed(3) and fmap.is_failed(7)
        assert not fmap.is_failed(4)
        assert fmap.failure_rate == pytest.approx(0.02)

    def test_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            FailureMap(10, [10])

    def test_out_of_range_error_names_extreme_offender(self):
        with pytest.raises(AddressError, match="line 12 "):
            FailureMap(10, [11, 3, 12, 10])
        with pytest.raises(AddressError, match="line -2 "):
            FailureMap(10, [-1, 11, -2])

    def test_iteration_sorted(self):
        assert list(FailureMap(10, [9, 1, 5])) == [1, 5, 9]

    def test_equality_and_hash(self):
        a = FailureMap(10, [1, 2])
        b = FailureMap(10, [2, 1])
        assert a == b and hash(a) == hash(b)
        assert a != FailureMap(11, [1, 2])

    def test_range_queries(self):
        fmap = FailureMap(100, [10, 20, 30])
        assert fmap.failed_in_range(10, 11) == {10, 20}
        assert fmap.any_failed_in_range(25, 10)
        assert not fmap.any_failed_in_range(31, 50)


class TestOsViews:
    def test_page_bitmap_matches_paper_layout(self):
        # Line offsets 0 and 63 of page 1.
        lines = [G.lines_per_page, 2 * G.lines_per_page - 1]
        fmap = FailureMap(4 * G.lines_per_page, lines)
        bitmap = fmap.page_bitmap(1, G)
        assert bitmap == (1 | (1 << 63))
        assert fmap.page_bitmap(0, G) == 0

    def test_perfect_page_detection(self):
        fmap = FailureMap(4 * G.lines_per_page, [G.lines_per_page + 3])
        assert fmap.page_is_perfect(0, G)
        assert not fmap.page_is_perfect(1, G)
        assert fmap.perfect_page_count(G) == 3
        # 100 lines: page 0 is whole and perfect; the failed line 99
        # sits on the partial trailing page, which is no page at all.
        assert FailureMap(100, [99]).perfect_page_count(G) == 1
        assert FailureMap(100, [63]).perfect_page_count(G) == 0


class TestFalseFailures:
    def test_single_pcm_line_poisons_whole_immix_line(self):
        fmap = FailureMap(64, [5])
        # 256 B Immix lines = 4 PCM lines; line 5 sits in Immix line 1.
        assert fmap.immix_line_view(G) == {1}

    def test_false_failure_overhead_paper_example(self):
        # Section 6.2: one failed 64 B line overstates failure by 192 B
        # with 256 B Immix lines.
        fmap = FailureMap(64, [5])
        assert fmap.false_failure_overhead(G) == 192

    def test_no_false_failures_at_matching_granularity(self):
        g64 = Geometry(immix_line=64)
        fmap = FailureMap(64, [5, 9])
        assert fmap.false_failure_overhead(g64) == 0

    @given(st.sets(st.integers(min_value=0, max_value=255), max_size=64))
    def test_immix_view_covers_all_failures(self, failed):
        fmap = FailureMap(256, failed)
        view = fmap.immix_line_view(G)
        for line in failed:
            assert line // 4 in view


class TestTransforms:
    def test_union(self):
        a = FailureMap(10, [1])
        b = FailureMap(10, [2])
        assert a.union(b) == FailureMap(10, [1, 2])
        with pytest.raises(ValueError):
            a.union(FailureMap(11))

    def test_with_failure(self):
        fmap = FailureMap(10, [1]).with_failure(3)
        assert fmap.failed_lines == frozenset({1, 3})

    def test_subset_rebases(self):
        fmap = FailureMap(100, [10, 15, 50])
        sub = fmap.subset(10, 10)
        assert sub.n_lines == 10
        assert sub.failed_lines == frozenset({0, 5})

    def test_subset_bounds_checked(self):
        with pytest.raises(AddressError):
            FailureMap(10).subset(5, 6)


class TestCoarsen:
    def test_groups_fail_wholly(self):
        fmap = FailureMap(16, [5])
        coarse = coarsen(fmap, 4)
        assert coarse.failed_lines == frozenset({4, 5, 6, 7})

    def test_identity_at_granularity_one(self):
        fmap = FailureMap(16, [3, 9])
        assert coarsen(fmap, 1) == fmap

    def test_trailing_partial_group_clamped(self):
        fmap = FailureMap(6, [5])
        coarse = coarsen(fmap, 4)
        assert coarse.failed_lines == frozenset({4, 5})

    def test_validation(self):
        with pytest.raises(ValueError):
            coarsen(FailureMap(4), 0)

    @given(
        st.sets(st.integers(min_value=0, max_value=63), max_size=20),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_coarsening_only_grows(self, failed, granularity):
        fmap = FailureMap(64, failed)
        coarse = coarsen(fmap, granularity)
        assert fmap.failed_lines <= coarse.failed_lines
        assert coarse.failed_count % min(granularity, 64) == 0 or granularity == 1
