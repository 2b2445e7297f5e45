"""Mark-sweep baseline with a segregated-size free list (paper fig. 3).

This is the MS / Sticky-MS baseline the paper compares Immix against: a
classic segregated-fit allocator in the style of MMTk's MarkSweep.
Blocks are dedicated to a size class on demand and carved into
equal-size cells; allocation pops a free cell, collection traces and
returns dead cells to their class's free list.

It also illustrates the paper's section 3.3.1 argument: making a
free-list allocator failure-aware is *possible* (mark cells overlapping
failed lines unavailable) but mismatched — one failed 64 B line kills a
whole cell, and large cells amplify the waste. We implement that
optional failure mode so the complexity/fragmentation argument is
measurable, while the paper's evaluation uses MS only without failures.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..hardware.geometry import Geometry
from ..heap.block import Block
from ..heap.heap_table import HeapTable
from ..heap.large_object_space import LargeObjectSpace
from ..heap.object_model import SimObject, mark_live
from ..heap.page_supply import PageSupply
from ..obs.trace import maybe_span
from ..units import KiB
from .stats import GcStats

#: Size classes (bytes), MMTk-flavoured: fine-grained small sizes, then
#: power-of-two-ish steps up to the large-object threshold.
SIZE_CLASSES = (
    16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
    1536, 2048, 3072, 4096, 6144, 8192,
)


#: The smallest class that fits each multiple of 8 bytes up to the
#: largest class, indexed by ``(size + 7) >> 3``: every class is a
#: multiple of 8, so rounding a size up to one picks the same class.
_CLASS_BY_WORDS = tuple(
    SIZE_CLASSES[bisect_left(SIZE_CLASSES, 8 * words)]
    for words in range(SIZE_CLASSES[-1] // 8 + 1)
)


def size_class_for(size: int) -> Optional[int]:
    """The smallest class that fits ``size``; None when it is large."""
    if size > SIZE_CLASSES[-1]:
        return None
    return _CLASS_BY_WORDS[(size + 7) >> 3] if size > 0 else SIZE_CLASSES[0]


class _ClassSpace:
    """Free cells and blocks for one size class."""

    __slots__ = ("cell_size", "free_cells", "fresh_cells", "blocks")

    def __init__(self, cell_size: int) -> None:
        self.cell_size = cell_size
        #: Recycled cells (freed by a sweep) as (block, offset) pairs.
        #: Reused LIFO, like a real free list — and scattered, unlike
        #: bump allocation, which is what costs MS mutator locality.
        self.free_cells: Deque[Tuple[Block, int]] = deque()
        #: Never-used cells from freshly carved blocks (contiguous).
        self.fresh_cells: Deque[Tuple[Block, int]] = deque()
        self.blocks: List[Block] = []


class MarkSweepCollector:
    """Segregated-fit mark-sweep over the same page supply as Immix."""

    def __init__(
        self,
        supply: PageSupply,
        geometry: Geometry,
        generational: bool = False,
        large_threshold: int = 8 * KiB,
        failure_aware: bool = False,
        stats: Optional[GcStats] = None,
    ) -> None:
        self.supply = supply
        self.geometry = geometry
        self.generational = generational
        self.large_threshold = large_threshold
        self.failure_aware = failure_aware
        self.stats = stats or GcStats()
        self.los = LargeObjectSpace(supply, geometry)
        #: Shared whole-heap line arrays (one segment per class block).
        self.table = HeapTable(geometry)
        self._classes: Dict[int, _ClassSpace] = {
            cls: _ClassSpace(cls) for cls in SIZE_CLASSES
        }
        self._epoch = 0
        self._next_block_index = 0
        self._young: List[SimObject] = []
        self._remset: Set[SimObject] = set()
        self._nursery_since_full = 0
        #: Optional observability hook; see :mod:`repro.obs.trace`.
        self.tracer = None

    # ==================================================================
    # Allocation
    # ==================================================================
    def allocate(self, obj: SimObject, after_gc: bool = False) -> bool:
        size = obj.size
        if size > self.large_threshold:
            if not self.los.allocate(obj, allow_borrow=True):
                return False
            self.stats.los_allocs += 1
            self.stats.los_pages_allocated += obj.los_placement.n_pages
        else:
            cls = size_class_for(size)
            space = self._classes[cls]
            if space.free_cells:
                block, offset = space.free_cells.pop()  # LIFO reuse
                self.stats.freelist_reuse_allocs += 1
            else:
                if not space.fresh_cells and not self._grow_class(space):
                    return False
                block, offset = space.fresh_cells.popleft()
            block.place(obj, offset)
            self.stats.freelist_allocs += 1
            self.stats.freelist_waste_bytes += cls - size
        self.stats.objects_allocated += 1
        self.stats.bytes_allocated += obj.size
        if self.generational:
            self._young.append(obj)
        return True

    def _grow_class(self, space: _ClassSpace) -> bool:
        pages = self.supply.take_block_pages()
        if pages is None:
            return False
        block = Block(self._next_block_index, pages, self.geometry, table=self.table)
        self._next_block_index += 1
        space.blocks.append(block)
        self.stats.block_requests += 1
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "marksweep.block_acquired",
                args={"size_class": space.cell_size},
            )
        cell = space.cell_size
        line_size = self.geometry.immix_line
        for offset in range(0, self.geometry.block - cell + 1, cell):
            if self.failure_aware and self._cell_overlaps_failure(
                block, offset, cell, line_size
            ):
                continue
            space.fresh_cells.append((block, offset))
        return True

    def _cell_overlaps_failure(
        self, block: Block, offset: int, cell: int, line_size: int
    ) -> bool:
        base = self.table.base(block.slot)
        first = base + offset // line_size
        stop = base + (offset + cell - 1) // line_size + 1
        return self.table.fail_marks.find(1, first, stop) >= 0

    # ==================================================================
    # Collection
    # ==================================================================
    def write_barrier(self, parent: SimObject, child: SimObject) -> None:
        if self.generational and parent.old and not child.old:
            self._remset.add(parent)

    def should_collect_full(self) -> bool:
        if not self.generational:
            return True
        return self._nursery_since_full >= 16

    def collect(self, roots: Sequence[SimObject], force_full: bool = False) -> dict:
        if force_full or self.should_collect_full():
            return self.collect_full(roots)
        result = self.collect_nursery(roots)
        if not any(space.free_cells for space in self._classes.values()) and (
            self.supply.available_pages() < self.geometry.pages_per_block
        ):
            return self.collect_full(roots)
        return result

    def collect_full(self, roots: Sequence[SimObject]) -> dict:
        tr = self.tracer
        with maybe_span(tr, "gc.full", phase="gc.other"):
            self.stats.collections += 1
            self.stats.full_collections += 1
            self._nursery_since_full = 0
            self._epoch += 1
            epoch = self._epoch
            with maybe_span(tr, "gc.mark", phase="gc.mark"):
                live_objects, live_bytes = mark_live(roots, epoch)
                self.stats.objects_traced += live_objects
                self.stats.bytes_traced += live_bytes
                self.stats.full_gc_live_bytes.append(live_bytes)
            with maybe_span(tr, "gc.sweep", phase="gc.sweep"):
                self._sweep(epoch, keep_old=False)
                self.stats.los_pages_reclaimed += len(
                    self.los.sweep(epoch, keep_old=False)
                )
            self._young = []
            self._remset.clear()
            return {
                "kind": "full",
                "live_bytes": live_bytes,
                "live_objects": live_objects,
            }

    def collect_nursery(self, roots: Sequence[SimObject]) -> dict:
        tr = self.tracer
        with maybe_span(tr, "gc.nursery", phase="gc.other"):
            self.stats.collections += 1
            self.stats.nursery_collections += 1
            self._nursery_since_full += 1
            self._epoch += 1
            epoch = self._epoch
            with maybe_span(tr, "gc.mark", phase="gc.mark"):
                live_young = self._trace_young(roots, epoch)
                live_bytes = sum(obj.size for obj in live_young)
                self.stats.objects_traced += len(live_young)
                self.stats.bytes_traced += live_bytes
                self.stats.nursery_live_bytes.append(live_bytes)
            with maybe_span(tr, "gc.sweep", phase="gc.sweep"):
                # Sweep dead young objects straight back to their free
                # lists — cells are fixed, so no line-mark rebuild is
                # needed.
                self._free_dead_young(epoch)
                self.stats.cells_swept += len(self._young)
            for obj in self._young:
                if obj.mark == epoch:
                    obj.old = True
            self._young = []
            self._remset.clear()
            return {
                "kind": "nursery",
                "live_bytes": live_bytes,
                "live_objects": len(live_young),
            }

    def _trace_young(self, roots: Sequence[SimObject], epoch: int) -> List[SimObject]:
        stack: List[SimObject] = []
        for obj in roots:
            if not obj.old and obj.mark != epoch:
                obj.mark = epoch
                stack.append(obj)
            elif obj.old:
                for child in obj.refs:
                    if not child.old and child.mark != epoch:
                        child.mark = epoch
                        stack.append(child)
        for parent in self._remset:
            for child in parent.refs:
                if not child.old and child.mark != epoch:
                    child.mark = epoch
                    stack.append(child)
        reached: List[SimObject] = []
        while stack:
            obj = stack.pop()
            reached.append(obj)
            for child in obj.refs:
                if not child.old and child.mark != epoch:
                    child.mark = epoch
                    stack.append(child)
        return reached

    def _free_dead_young(self, epoch: int) -> None:
        """Return each dead young object's cell to its class's free list.

        Cells are freed in nursery order and their placements cleared;
        then every block that lost an object drops its dead ones in one
        filtered pass, instead of one ``list.remove`` per object.
        """
        classes = self._classes
        touched: Dict[Block, None] = {}  # insertion-ordered
        for obj in self._young:
            if obj.mark == epoch:
                continue
            if obj.is_large:
                self.stats.los_pages_reclaimed += obj.los_placement.n_pages
                self.los.free(obj)
                continue
            block = obj.block
            if block is None:
                continue
            classes[size_class_for(obj.size)].free_cells.append((block, obj.offset))
            obj.block = None
            obj.offset = None
            touched[block] = None
        for block in touched:
            block.replace_objects([obj for obj in block.objects if obj.block is block])

    def _sweep(self, epoch: int, keep_old: bool) -> None:
        """Full sweep: every cell of every block is inspected.

        Free lists are rebuilt from scratch, and blocks left with no
        live cells return their pages to the shared supply so the LOS
        (and future classes) can compete for them.
        """
        line_size = self.geometry.immix_line
        for cls, space in self._classes.items():
            space.free_cells.clear()
            kept_blocks: List[Block] = []
            for block in space.blocks:
                survivors = []
                for obj in block.objects:
                    if obj.mark == epoch or (keep_old and obj.old):
                        survivors.append(obj)
                    else:
                        obj.block = None
                        obj.offset = None
                block.replace_objects(survivors)
                self.stats.cells_swept += self.geometry.block // cls
                self.stats.blocks_swept += 1
                if not survivors:
                    self.supply.release_all(block.pages)
                    self.table.retire(block.slot)
                    continue
                kept_blocks.append(block)
                occupied = {obj.offset for obj in survivors}
                for offset in range(0, self.geometry.block - cls + 1, cls):
                    if offset in occupied:
                        continue
                    if self.failure_aware and self._cell_overlaps_failure(
                        block, offset, cls, line_size
                    ):
                        continue
                    space.free_cells.append((block, offset))
            space.blocks = kept_blocks

    # ------------------------------------------------------------------
    def heap_census(self) -> dict:
        return {
            "blocks": sum(len(s.blocks) for s in self._classes.values()),
            "free_cells": sum(len(s.free_cells) for s in self._classes.values()),
            "los_objects": len(self.los),
            "free_pages": self.supply.available_pages(),
        }
