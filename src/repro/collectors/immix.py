"""The Immix mark-region collector, failure-aware (paper sections 4.1-4.2).

Faithful to the algorithm the paper extends:

* bump-pointer allocation into contiguous free-line runs, skipping over
  unavailable lines in one step;
* recycled blocks are consumed before completely free blocks;
* medium objects (larger than a line) that do not fit the current run
  divert to an *overflow* block so usable holes are not wasted;
* a page-grained large object space competes for the same page budget;
* occasional copying evacuates flagged blocks (used here for dynamic
  failures, exactly as the paper reuses the defragmentation mechanism);
* the Sticky variant adds sticky-mark-bit generational collection.

The failure-aware extension is deliberately minimal, as in the paper:
failed lines are a fourth line state seeded from the failure map, the
allocator's existing skipping machinery does the rest, and the overflow
path gains the search-then-request-perfect-block fallback.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set

from ..errors import OutOfMemoryError
from ..hardware.geometry import Geometry
from ..heap.block import Block
from ..heap.heap_table import HeapTable
from ..heap.large_object_space import LargeObjectSpace
from ..heap.object_model import SimObject, mark_live
from ..heap.page_supply import PageSupply
from ..obs.trace import maybe_span
from ..units import KiB
from .stats import GcStats

@dataclass(frozen=True)
class ImmixConfig:
    """Collector policy knobs (paper defaults)."""

    #: Objects larger than this go to the large object space.
    large_threshold: int = 8 * KiB
    #: Sticky-mark-bits generational collection (S-IX vs IX).
    generational: bool = True
    #: Copy nursery survivors opportunistically (sticky Immix default).
    copy_nursery_survivors: bool = True
    #: A nursery collection reclaiming less than this fraction of the
    #: heap escalates the next collection to a full-heap trace.
    nursery_yield_fraction: float = 0.08
    #: Paper section 3.3.3: an allocation that cannot be satisfied from
    #: imperfect memory triggers a collection and retries; only if the
    #: GC still cannot accommodate it may perfect memory be requested.
    #: Setting this False serves perfect requests immediately through
    #: the debit-credit model (an ablation of the protocol).
    collect_before_perfect: bool = True
    #: Discontiguous arrays (paper section 3.3.3, citing Sartor et
    #: al.'s Z-rays): split large objects into a spine plus fixed-size
    #: arraylets placed in ordinary line space, removing the need for
    #: perfect pages entirely at the cost of indirected accesses. The
    #: software-only alternative to clustering hardware.
    arraylets: bool = False
    #: Arraylet payload size; Sartor et al. report <13 % average
    #: overhead even at 256 B.
    arraylet_bytes: int = 2048


class _ArrayletSpine:
    """Placement record for a discontiguous (arraylet) large object."""

    __slots__ = ("chunks",)

    def __init__(self, chunks: List[SimObject]) -> None:
        self.chunks = chunks

    @property
    def virtual_base(self) -> Optional[int]:
        return self.chunks[0].address if self.chunks else None

    @property
    def n_pages(self) -> int:
        return 0  # arraylets live in line space, not the page-grained LOS

    @property
    def pages(self) -> list:
        return []


class _BumpState:
    """Cursor/limit pair over one block's free runs."""

    __slots__ = ("block", "runs", "run_idx", "cursor", "limit", "run_lines")

    def __init__(self, block: Block, runs: List[tuple]) -> None:
        self.block = block
        self.runs = runs
        self.run_idx = -1
        self.cursor = 0
        self.limit = 0
        self.run_lines = 1

    def advance_run(self, line_size: int) -> bool:
        self.run_idx += 1
        if self.run_idx >= len(self.runs):
            return False
        start, length = self.runs[self.run_idx]
        self.cursor = start * line_size
        self.limit = (start + length) * line_size
        self.run_lines = length
        return True

    def select_run(self, idx: int, line_size: int) -> None:
        start, length = self.runs[idx]
        self.run_idx = idx
        self.cursor = start * line_size
        self.limit = (start + length) * line_size
        self.run_lines = length


class ImmixCollector:
    """Failure-aware (Sticky) Immix over a :class:`PageSupply`."""

    def __init__(
        self,
        supply: PageSupply,
        geometry: Geometry,
        config: Optional[ImmixConfig] = None,
        stats: Optional[GcStats] = None,
        factory=None,
        placement=None,
    ) -> None:
        self.supply = supply
        self.geometry = geometry
        self.config = config or ImmixConfig()
        #: Large-object placement policy (:mod:`repro.policies`); None
        #: is the paper's placement (every large object demands perfect
        #: pages unless the global arraylets flag is on).
        self.placement = placement
        self.stats = stats or GcStats()
        self.los = LargeObjectSpace(supply, geometry)
        #: Whole-heap line-state arrays; every block is a segment view.
        self.table = HeapTable(geometry)
        self.blocks: List[Block] = []
        self._recycled: Deque[Block] = deque()
        self._state: Optional[_BumpState] = None
        self._overflow: Optional[_BumpState] = None
        self._epoch = 0
        self._next_block_index = 0
        self._young: List[SimObject] = []
        self._remset: Set[SimObject] = set()
        #: page index -> (block, slot) for dynamic-failure routing.
        self.page_directory: Dict[int, tuple] = {}
        # A borrowed page repaying debt adopts a real page's index
        # (PageSupply.release); re-key its directory entry or dynamic
        # failures on that page would be silently dropped.
        supply.on_page_reindexed = self._reindex_page
        #: Objects displaced by a failure and awaiting re-placement
        #: (drained by the VM after the forced full collection).
        self.displaced: List[SimObject] = []
        self._nursery_since_full = 0
        #: Object factory for arraylet chunks (set by the VM when the
        #: arraylets feature is enabled).
        self.factory = factory
        #: Optional observability hook; see :mod:`repro.obs.trace`.
        self.tracer = None
        self._bind_hot_scalars()

    def _bind_hot_scalars(self) -> None:
        # The allocation fast path runs once per object; chasing
        # config/geometry attribute chains there costs more than the
        # branch work itself. These are construction-time constants.
        self._large_threshold = self.config.large_threshold
        self._line_size = self.geometry.immix_line
        self._generational = self.config.generational
        self._collect_before_perfect = self.config.collect_before_perfect
        # None when the policy can never divert an object — the default
        # large path then skips the policy call entirely (bit-identical
        # to the pre-policy fast path).
        placement = self.placement
        self._tolerant_large = (
            placement.tolerant_large
            if placement is not None and placement.needs_arraylets
            else None
        )

    def _trace_block_acquired(self, kind: str) -> None:
        tr = self.tracer
        if tr is not None:
            tr.instant("immix.block_acquired", args={"kind": kind})

    # ==================================================================
    # Allocation
    # ==================================================================
    def allocate(self, obj: SimObject, after_gc: bool = False) -> bool:
        """Place an object; False means a collection is needed first.

        The paper's protocol (section 3.3.3): an allocation that cannot
        be satisfied from imperfect memory first triggers a collection
        and retries; only when the GC *still* cannot accommodate it may
        the allocator request perfect memory. ``after_gc`` marks the
        post-collection retry, unlocking the perfect/borrow fallbacks.
        """
        size = obj.size
        stats = self.stats
        state = self._state
        if (
            state is not None
            and size <= self._large_threshold
            and state.cursor + size <= state.limit
        ):
            # The bump fast path, for any size up to the large
            # threshold: Block.place and the bump bookkeeping of
            # _place_in_lines, inlined because this runs once per object.
            block = state.block
            cursor = state.cursor
            obj.block = block
            obj.offset = cursor
            obj.los_placement = None
            block.objects.append(obj)
            block.allocated_since_gc = True
            block._obj_gen += 1
            state.cursor = cursor + size
            stats.fast_path_allocs += 1
            stats.run_locality_units += size / state.run_lines
        else:
            allow_perfect = after_gc or not self._collect_before_perfect
            if size > self._large_threshold:
                placed = self._alloc_large(obj, allow_borrow=allow_perfect)
            else:
                placed = self._place_in_lines(obj, allow_perfect)
            if not placed:
                return False
            block = obj.block
        stats.objects_allocated += 1
        stats.bytes_allocated += size
        if block is not None and block.n_failed:
            stats.block_sparsity_units += size * block.n_failed / block.n_lines
        if self._generational:
            self._young.append(obj)
        return True

    def _alloc_large(self, obj: SimObject, allow_borrow: bool = True) -> bool:
        if self.config.arraylets and self.factory is not None:
            return self._alloc_arraylets(obj, allow_perfect=allow_borrow)
        if (
            self._tolerant_large is not None
            and self.factory is not None
            and self._tolerant_large(obj)
        ):
            # HRM-style split: error-tolerant large objects shatter into
            # line-space arraylets (no perfect pages anywhere); strict
            # objects fall through to the perfect-page LOS below.
            return self._alloc_arraylets(obj, allow_perfect=allow_borrow)
        if not self.los.allocate(obj, allow_borrow=allow_borrow):
            return False
        self.stats.los_allocs += 1
        self.stats.los_pages_allocated += obj.los_placement.n_pages
        for page in obj.los_placement.pages:
            self.page_directory[page.index] = ("los", obj)
        return True

    def _alloc_arraylets(self, obj: SimObject, allow_perfect: bool = False) -> bool:
        """Split a large object into line-space arraylets (Z-rays).

        The spine object keeps references to its chunks, so the normal
        trace keeps them alive, the sweep reclaims them with the spine,
        and evacuation can relocate each chunk independently — no
        perfect pages are needed anywhere. All-or-nothing: a failed
        chunk placement rolls the earlier chunks back.
        """
        chunk_payload = self.config.arraylet_bytes
        remaining = obj.size
        chunks: List[SimObject] = []
        while remaining > 0:
            payload = min(remaining, chunk_payload)
            chunk = self.factory.make(payload)
            if not self._place_in_lines(chunk, allow_perfect):
                for done in chunks:
                    done.block.remove_object(done)
                    done.block = None
                    done.offset = None
                return False
            chunks.append(chunk)
            remaining -= payload
        for chunk in chunks:
            obj.add_ref(chunk)
            if self.config.generational:
                self._young.append(chunk)
        obj.los_placement = _ArrayletSpine(chunks)
        self.stats.arraylet_spines += 1
        self.stats.arraylet_chunks += len(chunks)
        self.stats.arraylet_bytes += obj.size
        return True

    def _place_in_lines(self, obj: SimObject, allow_perfect: bool = False) -> bool:
        """Bump a small or medium object into line space.

        The object goes at the cursor if the current run fits it. If not,
        a medium object (larger than a line) goes to the overflow block,
        and a small one advances run by run until one fits.
        """
        size = obj.size
        state = self._state
        while state is None or state.cursor + size > state.limit:
            if size > self._line_size:
                return self._alloc_overflow(obj, allow_perfect)
            state = self._advance_small()
            if state is None:
                return False
        state.block.place(obj, state.cursor)
        state.cursor += size
        stats = self.stats
        stats.fast_path_allocs += 1
        stats.run_locality_units += size / state.run_lines
        return True

    def _advance_small(self) -> Optional[_BumpState]:
        line_size = self.geometry.immix_line
        if self._state is not None and self._state.advance_run(line_size):
            self.stats.run_advances += 1
            return self._state
        while True:
            block = self._next_block()
            if block is None:
                self._state = None
                return None
            self._state = _BumpState(block, block.free_runs())
            if self._state.advance_run(line_size):
                break
            # A block with no free lines should never be queued; guard
            # against fully-failed blocks by skipping them, in a loop:
            # at high failure rates there can be thousands in a row.
        self.stats.run_advances += 1
        return self._state

    def _next_block(self) -> Optional[Block]:
        while self._recycled:
            block = self._recycled.popleft()
            if block.free_line_count() > 0:
                self.stats.block_requests += 1
                self._trace_block_acquired("recycled")
                return block
        return self._new_block()

    def _new_block(self) -> Optional[Block]:
        pages = self.supply.take_block_pages()
        if pages is None:
            return None
        block = Block(self._next_block_index, pages, self.geometry, table=self.table)
        self._next_block_index += 1
        self.blocks.append(block)
        for slot, page in enumerate(pages):
            self.page_directory[page.index] = ("block", block, slot)
        self.stats.block_requests += 1
        self._trace_block_acquired("free")
        return block

    # ------------------------------------------------------------------
    # Medium-object overflow allocation (sections 4.1-4.2)
    # ------------------------------------------------------------------
    def _alloc_overflow(self, obj: SimObject, allow_perfect: bool = False) -> bool:
        size = obj.size
        line_size = self.geometry.immix_line
        self.stats.overflow_allocs += 1
        ov = self._overflow
        if ov is not None:
            if ov.cursor + size <= ov.limit:
                ov.block.place(obj, ov.cursor)
                ov.cursor += size
                self.stats.run_locality_units += size / ov.run_lines
                return True
            # Failure-aware change: search the remainder of the overflow
            # block for a suitably sized run before giving it up.
            for idx in range(ov.run_idx + 1, len(ov.runs)):
                self.stats.overflow_run_searches += 1
                start, length = ov.runs[idx]
                if length * line_size >= size:
                    ov.select_run(idx, line_size)
                    ov.block.place(obj, ov.cursor)
                    ov.cursor += size
                    self.stats.run_locality_units += size / ov.run_lines
                    return True
        return self._new_overflow_block(obj, allow_perfect)

    def _new_overflow_block(self, obj: SimObject, allow_perfect: bool = False) -> bool:
        size = obj.size
        line_size = self.geometry.immix_line
        pages = self.supply.take_block_pages()
        if pages is not None:
            block = Block(self._next_block_index, pages, self.geometry, table=self.table)
            self._next_block_index += 1
            self.blocks.append(block)
            for slot, page in enumerate(pages):
                self.page_directory[page.index] = ("block", block, slot)
            runs = block.free_runs()
            for idx, (start, length) in enumerate(runs):
                self.stats.overflow_run_searches += 1
                if length * line_size >= size:
                    state = _BumpState(block, runs)
                    state.select_run(idx, line_size)
                    block.place(obj, state.cursor)
                    state.cursor += size
                    self.stats.run_locality_units += size / state.run_lines
                    self._overflow = state
                    return True
            # The fresh block's holes defeat this object; let the small
            # path recycle it and fall through.
            self._recycled.append(block)
        if self._overflow_from_recycled(obj):
            return True
        if not allow_perfect:
            # collect_before_perfect protocol (resolved by the caller):
            # collect before touching perfect memory.
            return False
        return self._perfect_overflow_block(obj)

    def _overflow_from_recycled(self, obj: SimObject) -> bool:
        """No free block: scan recycled blocks for a fitting run.

        Keeps medium allocation alive when the global pool is empty but
        fragmented blocks still hold big-enough holes; the searched
        block becomes the new overflow block.
        """
        size = obj.size
        line_size = self.geometry.immix_line
        for block in list(self._recycled):
            runs = block.free_runs()
            self.stats.overflow_run_searches += len(runs)
            for idx, (start, length) in enumerate(runs):
                if length * line_size >= size:
                    self._recycled.remove(block)
                    state = _BumpState(block, runs)
                    state.select_run(idx, line_size)
                    block.place(obj, state.cursor)
                    state.cursor += size
                    self.stats.run_locality_units += size / state.run_lines
                    self._overflow = state
                    return True
        return False

    def _perfect_overflow_block(self, obj: SimObject) -> bool:
        """Last resort: a completely free *perfect* block (fussy).

        Served like any fussy request: real perfect PCM first, then the
        debit-credit DRAM loan (each borrowed page parks one real free
        page — the space penalty). When even the penalty cannot be paid,
        the allocation fails and a collection is the only recourse; at
        heavy unclustered failure rates this is what eventually stops
        some benchmarks from running (paper figures 7-9).
        """
        self.stats.perfect_block_requests += 1
        try:
            pages = self.supply.fussy_pages(self.geometry.pages_per_block)
        except OutOfMemoryError:
            return False
        self._trace_block_acquired("perfect")
        block = Block(self._next_block_index, pages, self.geometry, table=self.table)
        self._next_block_index += 1
        self.blocks.append(block)
        for slot, page in enumerate(pages):
            self.page_directory[page.index] = ("block", block, slot)
        state = _BumpState(block, block.free_runs())
        state.advance_run(self.geometry.immix_line)
        block.place(obj, state.cursor)
        state.cursor += obj.size
        self.stats.run_locality_units += obj.size / state.run_lines
        self._overflow = state
        return True

    # ==================================================================
    # Collection
    # ==================================================================
    def should_collect_full(self) -> bool:
        """Sticky policy: escalate when nursery yields run dry."""
        if not self.config.generational:
            return True
        return self._nursery_since_full >= 16

    def collect(self, roots: Sequence[SimObject], force_full: bool = False) -> dict:
        """One collection; returns a result summary.

        Sticky policy: run a nursery collection first; escalate to a
        full-heap trace when the nursery leaves too little free space
        (the space-time trade-off the paper leans on).
        """
        full = force_full or self.should_collect_full()
        if full:
            return self.collect_full(roots)
        result = self.collect_nursery(roots)
        heap_bytes = self.supply.total_pages * self.geometry.page
        if self._free_bytes_estimate() < self.config.nursery_yield_fraction * heap_bytes:
            return self.collect_full(roots)
        return result

    # ------------------------------------------------------------------
    def collect_full(self, roots: Sequence[SimObject]) -> dict:
        tr = self.tracer
        with maybe_span(tr, "gc.full", phase="gc.other"):
            self.stats.collections += 1
            self.stats.full_collections += 1
            self._nursery_since_full = 0
            self._epoch += 1
            epoch = self._epoch
            free_before = self._free_bytes_estimate()
            with maybe_span(tr, "gc.mark", phase="gc.mark"):
                live_objects, live_bytes = mark_live(roots, epoch)
                self.stats.objects_traced += live_objects
                self.stats.bytes_traced += live_bytes
                self.stats.full_gc_live_bytes.append(live_bytes)
            with maybe_span(tr, "gc.sweep", phase="gc.sweep"):
                self._sweep_blocks(epoch, keep_old=False)
                self._sweep_los(epoch, keep_old=False)
            self._rebuild_allocation_state(exclude_evacuating=True)
            with maybe_span(tr, "gc.evacuate", phase="gc.evacuate"):
                self._evacuate_flagged(epoch)
                # Evacuation bump-placed survivors into swept blocks whose
                # line marks do not show them yet; refresh those marks
                # before the final allocation-state rebuild or the mutator
                # would overlap the copies.
                for block in self.blocks:
                    if block.allocated_since_gc:
                        block.rebuild_line_marks(epoch, keep_old=True)
            self._rebuild_allocation_state(exclude_evacuating=False)
            self._young = []
            self._remset.clear()
            return {
                "kind": "full",
                "live_bytes": live_bytes,
                "live_objects": live_objects,
                "reclaimed_bytes": max(0, self._free_bytes_estimate() - free_before),
            }

    def collect_nursery(self, roots: Sequence[SimObject]) -> dict:
        tr = self.tracer
        with maybe_span(tr, "gc.nursery", phase="gc.other"):
            self.stats.collections += 1
            self.stats.nursery_collections += 1
            self._nursery_since_full += 1
            self._epoch += 1
            epoch = self._epoch
            free_before = self._free_bytes_estimate()
            with maybe_span(tr, "gc.mark", phase="gc.mark"):
                live_young = self._trace_young(roots, epoch)
                live_bytes = sum(obj.size for obj in live_young)
                self.stats.objects_traced += len(live_young)
                self.stats.bytes_traced += live_bytes
                self.stats.nursery_live_bytes.append(live_bytes)
            with maybe_span(tr, "gc.sweep", phase="gc.sweep"):
                # Sweep only blocks allocated into since the last collection.
                for block in [b for b in self.blocks if b.allocated_since_gc]:
                    live_lines, scanned = block.rebuild_line_marks(
                        epoch, keep_old=True
                    )
                    self.stats.lines_swept += scanned
                    self.stats.lines_marked += live_lines
                    self.stats.blocks_swept += 1
                    if not block.objects:
                        self._release_block(block)
                self._sweep_los(epoch, keep_old=True)
            survivors = [obj for obj in self._young if obj.mark == epoch]
            for obj in survivors:
                obj.old = True
            self._rebuild_allocation_state(exclude_evacuating=True)
            if self.config.copy_nursery_survivors:
                with maybe_span(tr, "gc.copy", phase="gc.copy"):
                    self._copy_survivors(survivors, epoch)
            self._young = []
            self._remset.clear()
            return {
                "kind": "nursery",
                "live_bytes": live_bytes,
                "live_objects": len(live_young),
                "reclaimed_bytes": max(0, self._free_bytes_estimate() - free_before),
            }

    def _trace_young(self, roots: Sequence[SimObject], epoch: int) -> List[SimObject]:
        """Transitive closure over young objects only.

        Old objects are implicitly live (sticky mark bits); old->young
        edges created since the last collection were captured by the
        write barrier into the remembered set.
        """
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

    # ------------------------------------------------------------------
    def write_barrier(self, parent: SimObject, child: SimObject) -> None:
        """Record old->young edges for the next nursery trace."""
        if self.config.generational and parent.old and not child.old:
            self._remset.add(parent)

    # ------------------------------------------------------------------
    # Sweeping and evacuation
    # ------------------------------------------------------------------
    def _sweep_blocks(self, epoch: int, keep_old: bool) -> None:
        kept: List[Block] = []
        for block in self.blocks:
            if block.evacuate:
                # _evacuate_flagged rebuilds it again and records its
                # conflicts then.
                live_lines, scanned = block.rebuild_before_evacuation(epoch, keep_old)
            else:
                live_lines, scanned = block.rebuild_line_marks(epoch, keep_old=keep_old)
            self.stats.lines_swept += scanned
            self.stats.lines_marked += live_lines
            self.stats.blocks_swept += 1
            if block.objects:
                kept.append(block)
            else:
                self._release_block(block, from_list=False)
        self.blocks = kept

    def _sweep_los(self, epoch: int, keep_old: bool) -> None:
        def retire_directory_entries(obj: SimObject) -> None:
            # Before the release: freeing a perfect page while debt is
            # outstanding re-keys a live borrowed placement under this
            # same index, and a late pop would clobber its new entry.
            for page in obj.los_placement.pages:
                self.page_directory.pop(page.index, None)

        freed = self.los.sweep(
            epoch, keep_old=keep_old, on_free=retire_directory_entries
        )
        self.stats.los_pages_reclaimed += len(freed)

    def _release_block(self, block: Block, from_list: bool = True) -> None:
        for page in block.pages:
            self.page_directory.pop(page.index, None)
        self.supply.release_all(block.pages)
        # Blank the block's heap-table segment so whole-heap scans stop
        # seeing it; the slot is recycled for the next block.
        self.table.retire(block.slot)
        if from_list:
            self.blocks.remove(block)
        try:
            self._recycled.remove(block)
        except ValueError:
            pass

    def _rebuild_allocation_state(self, exclude_evacuating: bool) -> None:
        # Whole-heap kernel: one find-jumping scan over the flat line
        # array yields exactly the blocks with a free line — every
        # active segment's owner is in self.blocks.
        owners = self.table.owners
        candidates = [owners[slot] for slot in self.table.slots_with_free_lines()]
        if exclude_evacuating:
            candidates = [b for b in candidates if not b.evacuate]
        candidates.sort(key=lambda b: b.virtual_index)
        self._recycled = deque(candidates)
        self._state = None
        self._overflow = None

    def _place_copy(self, obj: SimObject) -> bool:
        """Re-place a surviving object during evacuation/compaction.

        Tries the bump fast path (inlined as in :meth:`allocate`), then
        the regular allocation machinery, but does not count the
        placement as a fresh mutator allocation. Copies run inside a
        collection, so the perfect fallback is allowed.
        """
        size = obj.size
        state = self._state
        if state is not None and state.cursor + size <= state.limit:
            block = state.block
            cursor = state.cursor
            obj.block = block
            obj.offset = cursor
            obj.los_placement = None
            block.objects.append(obj)
            block.allocated_since_gc = True
            block._obj_gen += 1
            state.cursor = cursor + size
            stats = self.stats
            stats.fast_path_allocs += 1
            stats.run_locality_units += size / state.run_lines
            return True
        return self._place_in_lines(obj, allow_perfect=True)

    def _evacuate_flagged(self, epoch: int) -> None:
        """Copy every unpinned object out of each flagged block.

        Copies never land in a flagged block (the allocation state was
        rebuilt without them), so each block's new object list is built
        once: its pinned objects in order, then the objects whose copy
        failed, restored at their old offsets in the order they failed.
        """
        flagged = [block for block in self.blocks if block.evacuate]
        stats = self.stats
        for block in flagged:
            kept: List[SimObject] = []
            aborted: List[SimObject] = []
            for obj in block.objects:
                if obj.pinned:
                    kept.append(obj)
                    continue
                old_offset = obj.offset
                obj.block = None
                obj.offset = None
                if self._place_copy(obj):
                    stats.objects_copied += 1
                    stats.bytes_copied += obj.size
                    obj.moved_count += 1
                else:
                    obj.block = block
                    obj.offset = old_offset
                    aborted.append(obj)
                    block.aborted_evacuations.add(obj.oid)
                    stats.evacuations_aborted += 1
            kept.extend(aborted)
            block.objects = kept
            block.touch_objects()
            block.evacuate = False
            block.rebuild_line_marks(epoch, keep_old=True)
            if not block.objects:
                self._release_block(block)

    def _copy_survivors(self, survivors: List[SimObject], epoch: int) -> None:
        """Opportunistically compact nursery survivors (sticky Immix).

        Each copy goes through :meth:`_place_copy`. Removal from the
        source block's object list is deferred and batched: placement
        never consults source object lists (free runs come from line
        marks, which removal does not touch), and a moved object's
        ``block`` already names its new block, so one filter per source
        after the loop is order-equivalent to the eager per-object
        ``list.remove`` — without its quadratic cost on survivor-heavy
        nurseries. The two cases where an object re-enters its source
        list (copy landed in the same block; out-of-space restore) are
        fixed up eagerly so the final lists match the eager semantics
        element for element.

        Emptied sources are released in first-copied order. A set of
        blocks would iterate in ``id()`` order, which shifts with object
        addresses and would let page-release order vary between runs.
        """
        touched_sources: Dict[Block, None] = {}
        stats = self.stats
        place_copy = self._place_copy
        for obj in survivors:
            if obj.pinned or obj.is_large or obj.block is None:
                continue
            source = obj.block
            old_offset = obj.offset
            obj.block = None
            obj.offset = None
            if place_copy(obj):
                if obj.block is source:
                    # The copy landed back in its own block: the list
                    # now holds the object twice (stale slot + fresh
                    # append). Drop the stale entry now, exactly as
                    # remove-then-place would have.
                    source.objects.remove(obj)
                    source.touch_objects()
                stats.objects_copied += 1
                stats.bytes_copied += obj.size
                obj.moved_count += 1
                touched_sources[source] = None
            else:
                source.objects.remove(obj)
                source.touch_objects()
                source.place(obj, old_offset)
                break  # out of copy space: leave the rest in place
        # Drop the moved objects, then recover the space they vacated.
        for source in touched_sources:
            source.objects = [o for o in source.objects if o.block is source]
            source.rebuild_line_marks(epoch, keep_old=True)
            if not source.objects:
                self._release_block(source)

    # ------------------------------------------------------------------
    # Dynamic failures (section 4.2)
    # ------------------------------------------------------------------
    def note_dynamic_failure(self, page_index: int, pcm_offset: int) -> bool:
        """Poison the affected placement; True if a full GC is required.

        The failed line's page is found through the page directory. A
        block page poisons its Immix line, flags the block for
        evacuation, and requires a full collection (the paper reuses the
        defragmentation mechanism) — unless the Immix line was already
        failed (a duplicate hit from a second PCM line poisoning the
        same larger Immix line), which holds no live data and needs no
        evacuation. A large object's page triggers an immediate
        reallocation of that object onto fresh perfect pages.
        """
        entry = self.page_directory.get(page_index)
        if entry is None:
            return False
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "immix.dynamic_failure",
                args={
                    "page": page_index,
                    "pcm_offset": pcm_offset,
                    "target": entry[0],
                },
            )
        if entry[0] == "block":
            _, block, slot = entry
            block.pages[slot].record_failure(pcm_offset, self.geometry)
            _, newly_failed = block.record_dynamic_failure(slot, pcm_offset)
            if newly_failed:
                self.stats.dynamic_failed_lines += 1
            else:
                self.stats.duplicate_dynamic_failures += 1
            return newly_failed
        _, obj = entry
        old_pages = list(obj.los_placement.pages)
        for page in old_pages:
            self.page_directory.pop(page.index, None)
            if page.index == page_index:
                page.record_failure(pcm_offset, self.geometry)
        # Free first so its (now imperfect) pages rejoin the supply,
        # then place the object on fresh perfect pages.
        self.los.free(obj)
        if self._alloc_large(obj):
            self.stats.objects_copied += 1
            self.stats.bytes_copied += obj.size
            obj.moved_count += 1
            return False
        self.displaced.append(obj)
        return True

    def _reindex_page(self, old_index: int, new_index: int) -> None:
        """A held page changed identity (borrowed -> real); follow it."""
        entry = self.page_directory.pop(old_index, None)
        if entry is not None:
            self.page_directory[new_index] = entry

    # ------------------------------------------------------------------
    def _free_bytes_estimate(self) -> int:
        # One C-speed count over the whole-heap array; guard bytes and
        # retired segments are UNMAPPED, so this equals the per-block sum.
        block_free = self.table.free_line_count() * self.geometry.immix_line
        return block_free + self.supply.available_pages() * self.geometry.page

    def heap_census(self) -> dict:
        """Debug/metrics snapshot of heap composition."""
        return {
            "blocks": len(self.blocks),
            "recycled": len(self._recycled),
            "los_objects": len(self.los),
            "free_pages": self.supply.available_pages(),
            "failed_lines": self.table.failed_line_count(),
            "free_lines": self.table.free_line_count(),
        }
