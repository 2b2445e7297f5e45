"""Tests for the swap policy over imperfect pages."""

import pytest

from repro.errors import OutOfMemoryError
from repro.osim.page import PhysicalPage
from repro.osim.pools import PagePools
from repro.osim.swap import Swapper


def degraded_pools(spec):
    """Build pools where page i has spec[i] failed offsets (a set)."""
    pools = PagePools(len(spec))
    for index, offsets in enumerate(spec):
        for offset in offsets:
            pools.page(index).record_failure(offset)
        if offsets:
            pools.note_page_degraded(index)
    return pools


class TestSwapOutIn:
    def test_round_trip_to_perfect_page(self):
        pools = degraded_pools([set(), set()])
        swapper = Swapper(pools)
        page = pools.take_perfect()
        slot = swapper.swap_out(page, payload="data")
        assert swapper.resident_slots == 1
        destination = swapper.swap_in(slot)
        assert destination.is_perfect
        assert swapper.resident_slots == 0
        assert swapper.stats.swapped_out == 1
        assert swapper.stats.swapped_in == 1

    def test_subset_destination_preferred_over_perfect(self):
        pools = degraded_pools([{1, 2}, {1}, set()])
        swapper = Swapper(pools)
        source = pools.take_any_pcm()  # page 0, holes {1,2}
        slot = swapper.swap_out(source, payload=None)
        destination = swapper.swap_in(slot)
        # Page 0 came back to the free imperfect pool and is hole-
        # compatible with itself; a perfect page must not be spent.
        assert destination.index in (0, 1)
        assert swapper.stats.subset_destinations == 1
        assert swapper.stats.perfect_destinations == 0

    def test_destination_is_always_hole_compatible(self):
        pools = degraded_pools([{1}, {9}, set()])
        swapper = Swapper(pools)
        source = pools.take_any_pcm()
        source_holes = source.failed_bits
        slot = swapper.swap_out(source, payload=None)
        destination = swapper.swap_in(slot)
        assert not destination.failed_bits & ~source_holes
        assert swapper.stats.perfect_destinations + swapper.stats.subset_destinations == 1

    def test_incompatible_imperfect_falls_back_to_perfect(self):
        # The only free imperfect page has holes not contained in the
        # source's hole set (a perfect source has none), so the swapper
        # must spend a perfect page.
        pools = degraded_pools([{9}, set(), set()])
        swapper = Swapper(pools)
        slot = swapper.swap_out(pools.take_perfect(), payload=None)
        destination = swapper.swap_in(slot)
        assert destination.is_perfect
        assert swapper.stats.perfect_destinations == 1

    def test_clustered_count_matching(self):
        pools = degraded_pools([{0, 1}, {0, 1, 2}])
        swapper = Swapper(pools, clustering_enabled=True)
        source = pools.page(1)
        pools.take_clustered_compatible(3)  # allocate page 0? no: <=3 picks 0
        # Reset: rebuild pools for a clean scenario.
        pools = degraded_pools([{0, 1}, {0, 1, 2}])
        swapper = Swapper(pools, clustering_enabled=True)
        source = pools.take_clustered_compatible(3)
        assert source is not None
        slot = swapper.swap_out(source, payload=None)
        destination = swapper.swap_in(slot)
        assert destination.failed_count <= 3
        assert swapper.stats.clustered_destinations == 1

    def test_swap_in_fails_atomically_when_no_memory(self):
        pools = degraded_pools([set()])
        swapper = Swapper(pools)
        page = pools.take_perfect()
        slot = swapper.swap_out(page, payload="precious")
        # Exhaust all memory.
        pools.take_perfect()
        with pytest.raises(OutOfMemoryError):
            swapper.swap_in(slot)
        # Slot still resident: data was not lost.
        assert swapper.resident_slots == 1

    def test_strategy_histogram(self):
        pools = degraded_pools([set(), set()])
        swapper = Swapper(pools)
        slot = swapper.swap_out(pools.take_perfect(), None)
        swapper.swap_in(slot)
        assert swapper.stats.by_strategy.get("perfect", 0) + swapper.stats.by_strategy.get(
            "subset", 0
        ) == 1
