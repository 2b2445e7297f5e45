"""OS page pools (paper section 3.2.1).

The OS manages DRAM, perfect PCM, and imperfect PCM pages in separate
pools. All PCM pages start perfect; the first failure on a page moves it
to the imperfect pool. Failure-unaware processes draw only from the
perfect (or DRAM) pools; failure-aware runtimes may draw imperfect pages
too, which grow ever more abundant as the system ages.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..errors import OutOfMemoryError, PerfectMemoryExhaustedError
from .page import PageKind, PhysicalPage


class PagePools:
    """Free-page pools plus the universe of page descriptors."""

    #: Valid ``supply_order`` spellings for :meth:`take_any_pcm`.
    SUPPLY_ORDERS = ("imperfect-first", "perfect-first")

    def __init__(
        self,
        n_pcm_pages: int,
        n_dram_pages: int = 0,
        supply_order: str = "imperfect-first",
    ) -> None:
        if n_pcm_pages < 0 or n_dram_pages < 0:
            raise ValueError("page counts must be >= 0")
        if supply_order not in self.SUPPLY_ORDERS:
            raise ValueError(
                f"unknown supply_order {supply_order!r}; "
                f"choose from {self.SUPPLY_ORDERS}"
            )
        self.supply_order = supply_order
        dram = range(n_pcm_pages, n_pcm_pages + n_dram_pages)
        self.pages: Dict[int, PhysicalPage] = {
            index: PhysicalPage(index, PageKind.PCM) for index in range(n_pcm_pages)
        }
        self.pages.update({index: PhysicalPage(index, PageKind.DRAM) for index in dram})
        self._perfect: Deque[int] = deque(range(n_pcm_pages))
        self._imperfect: Deque[int] = deque()
        self._dram: Deque[int] = deque(dram)
        self._allocated: set = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def free_perfect(self) -> int:
        return len(self._perfect)

    @property
    def free_imperfect(self) -> int:
        return len(self._imperfect)

    @property
    def free_dram(self) -> int:
        return len(self._dram)

    def is_allocated(self, index: int) -> bool:
        return index in self._allocated

    def page(self, index: int) -> PhysicalPage:
        return self.pages[index]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def take_perfect(self, allow_dram: bool = False) -> PhysicalPage:
        """A page with no failures: perfect PCM first, DRAM as fallback."""
        if self._perfect:
            return self._take(self._perfect.popleft())
        if allow_dram and self._dram:
            return self._take(self._dram.popleft())
        raise PerfectMemoryExhaustedError("no perfect PCM page available")

    def take_dram(self) -> PhysicalPage:
        if not self._dram:
            raise OutOfMemoryError("no DRAM page available")
        return self._take(self._dram.popleft())

    def take_any_pcm(self) -> PhysicalPage:
        """Any PCM page, in the pool policy's supply order.

        The paper supplies imperfect pages first (they are less
        precious); MigrantStore-style policies invert the order so data
        lands on reliable frames by default.
        """
        if self.supply_order == "perfect-first":
            first, second = self._perfect, self._imperfect
        else:
            first, second = self._imperfect, self._perfect
        if first:
            return self._take(first.popleft())
        if second:
            return self._take(second.popleft())
        raise OutOfMemoryError("no PCM page available")

    def take_imperfect(self) -> Optional[PhysicalPage]:
        """An imperfect page, or None when none are free."""
        if self._imperfect:
            return self._take(self._imperfect.popleft())
        return None

    def take_page(self, index: int) -> Optional[PhysicalPage]:
        """Take one specific free page by index, or None if unavailable."""
        for pool in (self._perfect, self._imperfect, self._dram):
            try:
                pool.remove(index)
            except ValueError:
                continue
            return self._take(index)
        return None

    def take_compatible(self, source: PhysicalPage) -> Optional[PhysicalPage]:
        """A free imperfect page whose holes are a subset of ``source``'s.

        Supports the swap-in path (section 3.2.3); linear scan, which
        the paper notes has limited efficacy — failure clustering makes
        the simpler failed-count comparison (``take_clustered_compatible``)
        preferable.
        """
        for index in list(self._imperfect):
            candidate = self.pages[index]
            if candidate.compatible_destination_for(source):
                self._imperfect.remove(index)
                return self._take(index)
        return None

    def take_clustered_compatible(self, failed_count: int) -> Optional[PhysicalPage]:
        """A free imperfect page with at most ``failed_count`` failures.

        Valid only under failure clustering, where every page's holes
        are packed at a known end: any page with the same number or
        fewer failures is automatically hole-compatible.
        """
        for index in list(self._imperfect):
            if self.pages[index].failed_count <= failed_count:
                self._imperfect.remove(index)
                return self._take(index)
        return None

    def _take(self, index: int) -> PhysicalPage:
        self._allocated.add(index)
        return self.pages[index]

    # ------------------------------------------------------------------
    # Release and state transitions
    # ------------------------------------------------------------------
    def release(self, index: int) -> None:
        if index not in self._allocated:
            raise ValueError(f"page {index} is not allocated")
        self._allocated.remove(index)
        page = self.pages[index]
        if page.kind is PageKind.DRAM:
            self._dram.append(index)
        elif page.is_perfect:
            self._perfect.append(index)
        else:
            self._imperfect.append(index)

    def note_page_degraded(self, index: int) -> None:
        """Move a free page from the perfect to the imperfect pool after
        its first failure (allocated pages move when released)."""
        if index in self._allocated:
            return
        try:
            self._perfect.remove(index)
        except ValueError:
            return
        self._imperfect.append(index)

    def note_pages_degraded(self, indices: List[int]) -> None:
        """Bulk :meth:`note_page_degraded`: one pool rebuild, not one
        O(n) ``deque.remove`` per page.

        Absorbing an aged module's static failures degrades thousands
        of pages against a full perfect pool, which is quadratic the
        one-at-a-time way. Final pool contents and order are identical:
        filtering preserves the perfect pool's relative order exactly
        as repeated ``remove`` calls would, and moved pages append to
        the imperfect pool in call order.
        """
        perfect = set(self._perfect)
        moved: List[int] = []
        seen: set = set()
        for index in indices:
            if index in seen or index in self._allocated or index not in perfect:
                continue
            seen.add(index)
            moved.append(index)
        if not moved:
            return
        dropped = set(moved)
        self._perfect = deque(i for i in self._perfect if i not in dropped)
        self._imperfect.extend(moved)

    def imperfect_page_indices(self) -> List[int]:
        return sorted(self._imperfect)
