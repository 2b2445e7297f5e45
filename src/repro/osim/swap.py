"""Paging imperfect pages in and out (paper section 3.2.3).

When an imperfect page is swapped out and later brought back, its data
was written *around* the holes of its original physical page. The OS has
three options for the destination:

1. a perfect page (always safe, depletes the scarce perfect pool);
2. an imperfect page whose holes are a subset of the source's holes
   (safe without runtime help, but finding one needs a compatibility
   scan with limited efficacy — Ipek et al.'s observation);
3. under failure clustering, any page with the *same number or fewer*
   failures (holes are packed at a known end, so counting suffices).

:class:`Swapper` implements all three so experiments can compare their
hit rates as memory ages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import OutOfMemoryError
from ..hardware.geometry import popcount
from .page import PhysicalPage
from .pools import PagePools


@dataclass
class SwapSlot:
    """A swapped-out page image and the hole pattern it was written around."""

    payload: object
    #: The source page's failure bitmap.
    source_failed_bits: int
    clustered: bool


@dataclass
class SwapStats:
    swapped_out: int = 0
    swapped_in: int = 0
    perfect_destinations: int = 0
    subset_destinations: int = 0
    clustered_destinations: int = 0
    upcalls_needed: int = 0
    by_strategy: Dict[str, int] = field(default_factory=dict)


class Swapper:
    """Swap policy over a :class:`PagePools`."""

    def __init__(self, pools: PagePools, clustering_enabled: bool = False) -> None:
        self.pools = pools
        self.clustering_enabled = clustering_enabled
        self._slots: Dict[int, SwapSlot] = {}
        self._next_slot = 0
        self.stats = SwapStats()

    # ------------------------------------------------------------------
    def swap_out(self, page: PhysicalPage, payload: object) -> int:
        """Evict a page's contents to backing store; returns a slot id."""
        slot_id = self._next_slot
        self._next_slot += 1
        self._slots[slot_id] = SwapSlot(
            payload=payload,
            source_failed_bits=page.failed_bits,
            clustered=self.clustering_enabled,
        )
        self.pools.release(page.index)
        self.stats.swapped_out += 1
        return slot_id

    def swap_in(self, slot_id: int) -> PhysicalPage:
        """Bring a slot back into memory using the cheapest safe page.

        Tries option 3 (clustered count match) when clustering is on,
        then option 2 (hole-subset scan), then option 1 (perfect page).
        Raises :class:`OutOfMemoryError` when nothing fits.
        """
        slot = self._slots.pop(slot_id)
        destination = self._pick_destination(slot)
        if destination is None:
            # Re-register the slot so the caller can retry after freeing
            # memory; swap-in failed atomically.
            self._slots[slot_id] = slot
            raise OutOfMemoryError("no compatible destination page for swap-in")
        self.stats.swapped_in += 1
        return destination

    def _pick_destination(self, slot: SwapSlot) -> Optional[PhysicalPage]:
        if slot.clustered and self.clustering_enabled:
            page = self.pools.take_clustered_compatible(popcount(slot.source_failed_bits))
            if page is not None:
                self._count("clustered")
                self.stats.clustered_destinations += 1
                return page
        source_proxy = PhysicalPage(-1, failed_bits=slot.source_failed_bits)
        page = self.pools.take_compatible(source_proxy)
        if page is not None:
            self._count("subset")
            self.stats.subset_destinations += 1
            return page
        try:
            page = self.pools.take_perfect(allow_dram=True)
        except OutOfMemoryError:
            return None
        self._count("perfect")
        self.stats.perfect_destinations += 1
        return page

    def _count(self, strategy: str) -> None:
        self.stats.by_strategy[strategy] = self.stats.by_strategy.get(strategy, 0) + 1

    @property
    def resident_slots(self) -> int:
        return len(self._slots)
