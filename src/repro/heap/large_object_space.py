"""The large object space (paper sections 3.3.3 and 4.1).

Objects above the Immix large threshold live in a page-grained space.
Large objects are the paper's canonical *fussy* allocation: each needs
whole perfect pages (virtual address translation removes any page-level
contiguity concern, so the pages themselves may be scattered). Under
two-page failure clustering, perfect pages remain plentiful up to ~50 %
failures, which is why xalan — the paper's large-object-heavy
benchmark — tolerates failures so well.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import OutOfMemoryError
from ..hardware.geometry import Geometry
from .object_model import SimObject
from .page_supply import HeapPage, PageSupply


class Placement:
    """Pages backing one large object."""

    __slots__ = ("virtual_base", "pages")

    def __init__(self, virtual_base: int, pages: List[HeapPage]) -> None:
        self.virtual_base = virtual_base
        self.pages = pages

    @property
    def n_pages(self) -> int:
        return len(self.pages)


class LargeObjectSpace:
    """Page-grained allocator for large objects."""

    def __init__(self, supply: PageSupply, geometry: Geometry) -> None:
        self.supply = supply
        self.geometry = geometry
        self._objects: Dict[int, SimObject] = {}
        self._next_virtual = 1 << 40  # LOS virtual range, disjoint from blocks
        self.pages_in_use = 0
        self.peak_pages = 0
        self.allocations = 0
        self.failed_allocations = 0
        #: Optional observability hook; see :mod:`repro.obs.trace`.
        self.tracer = None

    # ------------------------------------------------------------------
    def pages_needed(self, size: int) -> int:
        return (size + self.geometry.page - 1) // self.geometry.page

    def allocate(self, obj: SimObject, allow_borrow: bool = True) -> bool:
        """Place a large object on perfect pages; False means "collect".

        Running out of perfect + borrowable memory surfaces as False so
        the caller can trigger a collection and retry, exactly like any
        other failed allocation request. ``allow_borrow=False`` is the
        paper's collect-before-borrowing protocol: only perfect PCM may
        be used before a collection has been tried.
        """
        n = self.pages_needed(obj.size)
        try:
            pages = self.supply.fussy_pages(n, allow_borrow=allow_borrow)
        except OutOfMemoryError:
            self.failed_allocations += 1
            return False
        placement = Placement(self._next_virtual, pages)
        self._next_virtual += n * self.geometry.page
        obj.los_placement = placement
        obj.block = None
        obj.offset = None
        self._objects[obj.oid] = obj
        self.pages_in_use += n
        self.peak_pages = max(self.peak_pages, self.pages_in_use)
        self.allocations += 1
        tr = self.tracer
        if tr is not None:
            tr.instant("los.alloc", args={"oid": obj.oid, "pages": n})
        return True

    def free(self, obj: SimObject) -> None:
        placement = obj.los_placement
        if placement is None or self._objects.pop(obj.oid, None) is None:
            raise ValueError(f"object {obj.oid} is not in the LOS")
        self.supply.release_all(placement.pages)
        self.pages_in_use -= placement.n_pages
        obj.los_placement = None
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "los.free", args={"oid": obj.oid, "pages": placement.n_pages}
            )

    # ------------------------------------------------------------------
    def sweep(
        self,
        epoch: int,
        keep_old: bool = False,
        on_free: Optional[Callable[[SimObject], None]] = None,
    ) -> List[HeapPage]:
        """Free large objects not marked with ``epoch``.

        With ``keep_old`` (sticky nursery sweeps) objects whose sticky
        bit is set survive unmarked. ``on_free`` is called with each dead
        object *before* its pages are released: releasing a perfect page
        while DRAM debt is outstanding can transmute it into a live
        borrowed placement under the same index, so per-index bookkeeping
        must be retired before the release, not after. Returns the freed
        pages for accounting.
        """
        dead = [
            obj
            for obj in self._objects.values()
            if obj.mark != epoch and not (keep_old and obj.old)
        ]
        freed: List[HeapPage] = []
        for obj in dead:
            if on_free is not None:
                on_free(obj)
            freed.extend(obj.los_placement.pages)
            self.free(obj)
        return freed

    def objects(self) -> List[SimObject]:
        return list(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)
