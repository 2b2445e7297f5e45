"""Tests for the OS failure table."""

import pytest

from repro.hardware.geometry import Geometry
from repro.osim.failure_table import FailureTable

G = Geometry()


class TestRecording:
    def test_first_failure_flag(self):
        table = FailureTable(4, G)
        assert table.record_failure(1, 5)
        assert not table.record_failure(1, 9)
        assert table.record_failure(2, 0)

    def test_bitmap_layout(self):
        table = FailureTable(4, G)
        table.record_failure(0, 0)
        table.record_failure(0, 63)
        assert table.bitmap(0) == 1 | (1 << 63)

    def test_failed_offsets_round_trip(self):
        table = FailureTable(4, G)
        for offset in (3, 17, 42):
            table.record_failure(2, offset)
        assert table.failed_offsets(2) == {3, 17, 42}

    def test_global_line_indexing(self):
        table = FailureTable(4, G)
        table.record_global_line(G.lines_per_page + 7)
        assert table.failed_offsets(1) == {7}

    def test_bounds_checked(self):
        table = FailureTable(2, G)
        with pytest.raises(IndexError):
            table.record_failure(2, 0)
        with pytest.raises(IndexError):
            table.record_failure(0, G.lines_per_page)

    def test_imperfect_pages_and_counts(self):
        table = FailureTable(5, G)
        table.record_failure(3, 0)
        table.record_failure(1, 0)
        table.record_failure(1, 1)
        assert table.imperfect_pages() == [1, 3]
        assert table.failed_line_count() == 3
        assert table.is_perfect(0)
        assert not table.is_perfect(1)


class TestPersistence:
    def test_save_restore_round_trip(self):
        table = FailureTable(8, G)
        table.record_failure(4, 10)
        table.record_failure(7, 63)
        restored = FailureTable.restore(table.save(), 8, G)
        assert restored.failed_offsets(4) == {10}
        assert restored.failed_offsets(7) == {63}
        assert restored.imperfect_pages() == [4, 7]

    def test_rebuild_from_module_scan(self):
        lines = [3, G.lines_per_page * 2 + 5]
        table = FailureTable.rebuild_from_lines(lines, 4, G)
        assert table.failed_offsets(0) == {3}
        assert table.failed_offsets(2) == {5}

    def test_rebuild_takes_unsorted_duplicate_lines(self):
        lines = [G.lines_per_page * 3 + 1, 7, 3, 7, G.lines_per_page * 3 + 1]
        table = FailureTable.rebuild_from_lines(lines, 4, G)
        assert table.save() == {0: (1 << 3) | (1 << 7), 3: 1 << 1}
        assert table.failed_line_count() == 3
        assert table.imperfect_pages() == [0, 3]

    def test_batch_load_fills_queries_and_cache(self):
        table = FailureTable(4, G)
        assert table.failed_offsets(2) == frozenset()
        base = G.lines_per_page
        batch = table.load_lines([2 * base, base + 9, base + 5])
        assert batch == {1: (1 << 5) | (1 << 9), 2: 1}
        assert table.failed_offsets(1) == {5, 9}
        assert table.failed_offsets(2) == {0}
        assert table.bitmap(1) == (1 << 5) | (1 << 9)
        assert table.failed_line_count() == 3
        assert table.imperfect_pages() == [1, 2]
        assert table.record_failure(3, 0)
        assert table.imperfect_pages() == [1, 2, 3]

    def test_batch_load_needs_an_empty_table(self):
        table = FailureTable(4, G)
        table.record_failure(1, 5)
        with pytest.raises(ValueError):
            table.load_lines([0])
        assert table.save() == {1: 1 << 5}

    def test_rejected_batch_leaves_table_untouched(self):
        table = FailureTable(4, G)
        with pytest.raises(IndexError, match="page 4 "):
            table.load_lines([0, 5, 4 * G.lines_per_page])
        with pytest.raises(IndexError, match="page -1 "):
            table.load_lines([-1, 5])
        assert table.save() == {}
        assert table.failed_line_count() == 0
        assert table.load_lines([]) == {}

    def test_restore_validates_pages(self):
        with pytest.raises(IndexError):
            FailureTable.restore({9: 1}, 4, G)


class TestStorageOverhead:
    def test_paper_overhead_fraction(self):
        # 64-bit bitmap per 4 KB page: 8/4096 ~ 0.2%... the paper's 1.6%
        # figure counts bits-per-line differently; our table stores one
        # bit per line = lines_per_page/8 bytes per page.
        table = FailureTable(1000, G)
        assert table.storage_overhead_bytes() == 1000 * 8
        assert table.storage_overhead_fraction() == pytest.approx(8 / 4096)

    def test_empty_table(self):
        table = FailureTable(0, G)
        assert table.storage_overhead_fraction() == 0.0
