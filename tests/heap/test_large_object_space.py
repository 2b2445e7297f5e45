"""Tests for the large object space."""

import pytest

from repro.hardware.geometry import Geometry
from repro.heap.large_object_space import LargeObjectSpace
from repro.heap.object_model import SimObject
from repro.heap.page_supply import PageSupply
from tests.heap.oracles import pages_from_offsets

G = Geometry()


def make_los(perfect=8, imperfect=0):
    failures = {perfect + i: [0] for i in range(imperfect)}
    supply = PageSupply(pages_from_offsets(failures, G, perfect + imperfect), G)
    return LargeObjectSpace(supply, G), supply


class TestAllocation:
    def test_pages_needed_rounds_up(self):
        los, _ = make_los()
        assert los.pages_needed(1) == 1
        assert los.pages_needed(G.page) == 1
        assert los.pages_needed(G.page + 1) == 2

    def test_allocate_places_object(self):
        los, supply = make_los(perfect=8)
        obj = SimObject(0, 3 * G.page)
        assert los.allocate(obj)
        assert obj.is_large
        assert obj.los_placement.n_pages == 3
        assert obj.address is not None
        assert los.pages_in_use == 3
        assert supply.accountant.satisfied_from_pcm == 3

    def test_allocation_uses_only_perfect_pages_or_borrows(self):
        los, supply = make_los(perfect=0, imperfect=8)
        obj = SimObject(0, G.page)
        assert los.allocate(obj)
        assert obj.los_placement.pages[0].borrowed
        assert supply.accountant.debt == 1

    def test_failed_allocation_reports_false(self):
        los, _ = make_los(perfect=8, imperfect=0)
        # 12 pages needed: 8 perfect exist; borrowing the rest needs
        # parkable free pages, which have all been consumed.
        obj = SimObject(0, 12 * G.page)
        assert not los.allocate(obj)
        assert los.failed_allocations == 1

    def test_virtual_addresses_disjoint(self):
        los, _ = make_los(perfect=8)
        a, b = SimObject(0, G.page), SimObject(1, G.page)
        los.allocate(a)
        los.allocate(b)
        assert a.address != b.address
        assert abs(a.address - b.address) >= G.page


class TestFreeAndSweep:
    def test_free_returns_pages(self):
        los, supply = make_los(perfect=8)
        obj = SimObject(0, 2 * G.page)
        los.allocate(obj)
        los.free(obj)
        assert los.pages_in_use == 0
        assert supply.free_perfect == 8
        assert not obj.is_large

    def test_double_free_rejected(self):
        los, _ = make_los()
        obj = SimObject(0, G.page)
        los.allocate(obj)
        los.free(obj)
        with pytest.raises(ValueError):
            los.free(obj)

    def test_sweep_frees_unmarked(self):
        los, _ = make_los(perfect=8)
        live, dead = SimObject(0, G.page), SimObject(1, G.page)
        los.allocate(live)
        los.allocate(dead)
        live.mark = 5
        freed = los.sweep(epoch=5)
        assert len(freed) == 1
        assert len(los) == 1
        assert los.objects() == [live]

    def test_sweep_keep_old(self):
        los, _ = make_los(perfect=8)
        old = SimObject(0, G.page)
        old.old = True
        young_dead = SimObject(1, G.page)
        los.allocate(old)
        los.allocate(young_dead)
        freed = los.sweep(epoch=9, keep_old=True)
        assert len(freed) == 1
        assert los.objects() == [old]

    def test_peak_pages(self):
        los, _ = make_los(perfect=8)
        a = SimObject(0, 4 * G.page)
        los.allocate(a)
        los.free(a)
        b = SimObject(1, G.page)
        los.allocate(b)
        assert los.peak_pages == 4
