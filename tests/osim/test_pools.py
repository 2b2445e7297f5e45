"""Tests for OS page pools."""

import pytest

from repro.errors import OutOfMemoryError, PerfectMemoryExhaustedError
from repro.osim.page import PageKind, PhysicalPage
from repro.osim.pools import PagePools


class TestPhysicalPage:
    def test_perfect_until_failure(self):
        page = PhysicalPage(0)
        assert page.is_perfect
        page.record_failure(5)
        assert not page.is_perfect
        assert page.failed_count == 1

    def test_dram_never_fails(self):
        page = PhysicalPage(0, PageKind.DRAM)
        with pytest.raises(ValueError):
            page.record_failure(0)

    def test_compatibility_is_subset_relation(self):
        source = PhysicalPage(0, failed_bits=0b1110)
        subset = PhysicalPage(1, failed_bits=1 << 2)
        superset = PhysicalPage(2, failed_bits=(1 << 2) | (1 << 9))
        assert subset.compatible_destination_for(source)
        assert not superset.compatible_destination_for(source)
        assert PhysicalPage(3).compatible_destination_for(source)


class TestPools:
    def test_initial_population(self):
        pools = PagePools(10, 2)
        assert pools.free_perfect == 10
        assert pools.free_dram == 2
        assert pools.free_imperfect == 0

    def test_take_perfect_prefers_pcm(self):
        pools = PagePools(1, 1)
        page = pools.take_perfect(allow_dram=True)
        assert page.kind is PageKind.PCM
        page = pools.take_perfect(allow_dram=True)
        assert page.kind is PageKind.DRAM
        with pytest.raises(PerfectMemoryExhaustedError):
            pools.take_perfect(allow_dram=True)

    def test_take_perfect_without_dram_fallback(self):
        pools = PagePools(0, 1)
        with pytest.raises(PerfectMemoryExhaustedError):
            pools.take_perfect()

    def test_take_any_pcm_prefers_imperfect(self):
        pools = PagePools(2)
        pools.page(0).record_failure(3)
        pools.note_page_degraded(0)
        page = pools.take_any_pcm()
        assert page.index == 0
        page = pools.take_any_pcm()
        assert page.index == 1
        with pytest.raises(OutOfMemoryError):
            pools.take_any_pcm()

    def test_release_routes_by_state(self):
        pools = PagePools(1, 1)
        pcm = pools.take_perfect()
        pcm.record_failure(0)
        pools.release(pcm.index)
        assert pools.free_imperfect == 1
        dram = pools.take_dram()
        pools.release(dram.index)
        assert pools.free_dram == 1

    def test_release_unallocated_rejected(self):
        pools = PagePools(1)
        with pytest.raises(ValueError):
            pools.release(0)

    def test_degrade_moves_free_page(self):
        pools = PagePools(3)
        pools.page(1).record_failure(0)
        pools.note_page_degraded(1)
        assert pools.free_perfect == 2
        assert pools.free_imperfect == 1
        assert pools.imperfect_page_indices() == [1]

    def test_degrade_of_allocated_page_deferred(self):
        pools = PagePools(1)
        page = pools.take_perfect()
        page.record_failure(0)
        pools.note_page_degraded(page.index)  # no-op while allocated
        pools.release(page.index)
        assert pools.free_imperfect == 1

    def test_take_imperfect_returns_none_when_empty(self):
        pools = PagePools(2)
        assert pools.take_imperfect() is None

    def test_take_compatible_subset_scan(self):
        pools = PagePools(3)
        pools.page(0).record_failure(1)
        pools.page(0).record_failure(2)
        pools.note_page_degraded(0)
        pools.page(1).record_failure(9)
        pools.note_page_degraded(1)
        source = PhysicalPage(-1, failed_bits=0b1110)
        page = pools.take_compatible(source)
        assert page is not None and page.index == 0
        assert pools.take_compatible(source) is None  # page 1 incompatible

    def test_take_clustered_compatible_uses_counts(self):
        pools = PagePools(2)
        pools.page(0).record_failure(1)
        pools.page(0).record_failure(2)
        pools.note_page_degraded(0)
        assert pools.take_clustered_compatible(1) is None
        page = pools.take_clustered_compatible(2)
        assert page is not None and page.index == 0

    def test_is_allocated(self):
        pools = PagePools(1)
        assert not pools.is_allocated(0)
        pools.take_perfect()
        assert pools.is_allocated(0)
