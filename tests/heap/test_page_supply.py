"""Tests for the span-based page supply and debit-credit wiring."""

import pytest

from repro.errors import OutOfMemoryError
from repro.hardware.geometry import Geometry
from repro.heap.page_supply import SPAN_FREE, SPAN_LOS, HeapPage, PageSupply
from tests.heap.oracles import pages_from_offsets

G = Geometry()
PER_SPAN = G.pages_per_block  # 8


def build_supply(span_specs):
    """span_specs: list of lists; each inner list gives, per page of the
    span, the number of failed line offsets (0 = perfect page)."""
    failures = {}
    for spec in span_specs:
        assert len(spec) == PER_SPAN
        for failed_count in spec:
            failures[len(failures)] = range(failed_count)
    return PageSupply(pages_from_offsets(failures, G, len(failures)), G)


PERFECT_SPAN = [0] * PER_SPAN
HALF_SPAN = [0, 4, 0, 4, 0, 4, 0, 4]  # alternating perfect/imperfect
BAD_SPAN = [4] * PER_SPAN  # no perfect page at all


class TestSpanSetup:
    def test_partial_trailing_span_dropped(self):
        pages = [HeapPage(i) for i in range(PER_SPAN + 3)]
        supply = PageSupply(pages, G)
        assert supply.total_pages == PER_SPAN
        assert supply.free_spans() == 1

    def test_counts(self):
        supply = build_supply([PERFECT_SPAN, HALF_SPAN])
        assert supply.free_perfect == PER_SPAN + 4
        assert supply.free_imperfect == 4
        assert supply.free_real_pages == 2 * PER_SPAN


class TestBlockSpans:
    def test_claims_lowest_free_span(self):
        supply = build_supply([HALF_SPAN, PERFECT_SPAN])
        pages = supply.take_block_pages()
        assert [p.index for p in pages] == list(range(PER_SPAN))
        assert supply.free_spans() == 1

    def test_no_fully_free_span_returns_none(self):
        supply = build_supply([PERFECT_SPAN])
        supply.fussy_page()  # breaks the span (LOS claims it)
        assert supply.take_block_pages() is None

    def test_release_restores_span(self):
        supply = build_supply([PERFECT_SPAN])
        pages = supply.take_block_pages()
        supply.release_all(pages)
        assert supply.free_spans() == 1
        assert supply.take_block_pages() is not None


class TestFussyPath:
    def test_prefers_los_span_inventory(self):
        supply = build_supply([HALF_SPAN, HALF_SPAN])
        first = supply.fussy_page()
        second = supply.fussy_page()
        # Both perfect pages come from the first span (already claimed).
        assert first.index // PER_SPAN == second.index // PER_SPAN == 0
        assert supply.los_span_claims == 1
        assert supply.accountant.satisfied_from_pcm == 2

    def test_imperfect_remainder_is_dead_weight(self):
        supply = build_supply([HALF_SPAN])
        supply.fussy_page()
        # 4 imperfect pages stranded in the LOS span.
        assert supply.los_dead_weight_pages() == 4
        assert supply.take_block_pages() is None

    def test_skips_spans_without_perfect_pages(self):
        supply = build_supply([BAD_SPAN, HALF_SPAN])
        page = supply.fussy_page()
        assert page.index >= PER_SPAN  # from the second span
        assert supply.los_span_claims == 1

    def test_borrow_when_no_perfect_anywhere(self):
        supply = build_supply([BAD_SPAN])
        page = supply.fussy_page()
        assert page.borrowed
        assert supply.accountant.debt == 1
        # The penalty parked one real page.
        assert supply.parked_pages == 1
        assert supply.free_real_pages == PER_SPAN - 1

    def test_borrow_disallowed_before_collection(self):
        supply = build_supply([BAD_SPAN])
        with pytest.raises(OutOfMemoryError):
            supply.fussy_page(allow_borrow=False)
        assert supply.accountant.debt == 0

    def test_borrow_requires_parkable_page(self):
        supply = build_supply([BAD_SPAN])
        for _ in range(PER_SPAN):
            supply.fussy_page()
        with pytest.raises(OutOfMemoryError):
            supply.fussy_page()

    def test_fussy_pages_all_or_nothing(self):
        supply = build_supply([HALF_SPAN])
        with pytest.raises(OutOfMemoryError):
            supply.fussy_pages(20, allow_borrow=False)
        # Rolled back: all four perfect pages are available again.
        assert supply.free_perfect == 4


class TestDebitCredit:
    def test_release_of_borrowed_page_unparks(self):
        supply = build_supply([BAD_SPAN])
        page = supply.fussy_page()
        supply.release(page)
        assert supply.accountant.debt == 0
        assert supply.parked_pages == 0
        assert supply.free_real_pages == PER_SPAN

    def test_freed_perfect_page_repays_debt(self):
        supply = build_supply([BAD_SPAN])
        borrowed = supply.fussy_page()
        assert borrowed.borrowed
        # Somewhere else, a perfect page frees up (say a dead large
        # object on a previously claimed span): the supply routes it to
        # the outstanding loan instead of the free pool.
        outside = HeapPage(100)
        supply._span_of_page[100] = supply._spans[0]
        supply.release(outside)
        assert supply.accountant.debt == 0
        assert supply.accountant.repaid == 1
        assert not borrowed.borrowed
        assert borrowed.index == 100

    def test_no_repay_without_debt(self):
        supply = build_supply([PERFECT_SPAN])
        pages = supply.take_block_pages()
        supply.release_all(pages)
        assert supply.accountant.repaid == 0
        assert supply.free_perfect == PER_SPAN


class TestStatistics:
    def test_taken_counters(self):
        supply = build_supply([PERFECT_SPAN, HALF_SPAN])
        supply.take_block_pages()
        supply.fussy_page()
        assert supply.relaxed_pages_taken == PER_SPAN
        assert supply.fussy_pages_taken == 1

    def test_available_pages(self):
        supply = build_supply([HALF_SPAN])
        assert supply.available_pages() == PER_SPAN
        supply.fussy_page()
        assert supply.available_pages() == PER_SPAN - 1
