"""Immix blocks (paper section 4.1).

A block is 32 KB of virtually contiguous heap, backed by eight physical
pages that need not be contiguous or perfect. The block's line marks
and failure marks are a segment of its collector's
:class:`~.heap_table.HeapTable`. Failed PCM lines are seeded into it as
FAILED Immix lines at construction — including the paper's *false
failures*, where one failed 64 B PCM line poisons a whole 128 B or
256 B Immix line — by copying each page's precomputed Immix fail marks
(:attr:`~.page_supply.HeapPage.fail_marks`) into the segment. The
segment's fail marks and the block's ``n_failed`` count are the one
record of its failed lines; :meth:`Block.failed_line_indices` reads
them back.

Hot-path accounting is cached behind two generation counters:

* ``_line_gen`` advances whenever a line state mutates (failure seeding
  or a sweep's mark rebuild). The :class:`~.line_table.FreeRunSummary`
  — free runs, free line count, largest hole — is recomputed at most
  once per generation, so the allocator's repeated ``free_runs()`` /
  ``free_line_count()`` probes between mutations are dictionary-free
  cache hits. Allocation itself (:meth:`Block.place`) deliberately does
  *not* touch line states — the stock code recomputed runs from the
  unchanged table after every placement, so keeping the cache live
  across placements is exactly the original semantics, minus the scan.
* ``_obj_gen`` advances whenever the object list changes; it guards a
  sorted index over object extents so :meth:`objects_overlapping_line`
  is a bisect instead of a full scan.

The sweep keys its own cache on both counters: each block remembers its
last sweep (survivor list, both generations, survivor count, live line
count), so a block nobody touched since is not re-derived, and a block
that was only appended to merges just the new objects' spans.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import List, Optional, Sequence, Set, Tuple

from ..hardware.geometry import Geometry
from . import line_table
from .heap_table import HeapTable, LineSegment
from .line_table import FAILED, FREE, LIVE, LIVE_PINNED, FreeRunSummary
from .object_model import SimObject
from .page_supply import HeapPage

#: Byte maps that merge one span into a segment's line marks: a line
#: takes the span's state unless it already holds a higher one.
_MERGE_LIVE = bytes([LIVE, LIVE, LIVE_PINNED, FAILED]) + bytes(range(4, 256))
_MERGE_PINNED = bytes([LIVE_PINNED, LIVE_PINNED, LIVE_PINNED, FAILED]) + bytes(
    range(4, 256)
)
#: Byte map from fail marks (0/1) to line states: FAILED where marked.
_FAILED_WHERE_MARKED = bytes([FREE, FAILED]) + bytes(range(2, 256))


class Block:
    """One Immix block: a line-segment view into a heap table."""

    __slots__ = (
        "virtual_index",
        "geometry",
        "pages",
        "table",
        "slot",
        "n_lines",
        "n_failed",
        "objects",
        "evacuate",
        "allocated_since_gc",
        "mark_conflicts",
        "aborted_evacuations",
        "_base",
        "_line_gen",
        "_summary",
        "_summary_gen",
        "_obj_gen",
        "_extent_objs",
        "_extent_starts",
        "_extent_gen",
        "_swept_objects",
        "_swept_obj_gen",
        "_swept_line_gen",
        "_swept_count",
        "_swept_live_lines",
        "__weakref__",  # lets tests see a retired block freed
    )

    def __init__(
        self,
        virtual_index: int,
        pages: List[HeapPage],
        geometry: Geometry,
        table: Optional[HeapTable] = None,
    ) -> None:
        if len(pages) != geometry.pages_per_block:
            raise ValueError(
                f"a block needs {geometry.pages_per_block} pages, got {len(pages)}"
            )
        self.virtual_index = virtual_index
        self.geometry = geometry
        self.pages = pages
        # Collectors pass their shared whole-heap table; standalone
        # blocks (tests, benchmarks) get a private single-segment one
        # so the Block API is identical either way.
        if table is None:
            table = HeapTable(geometry)
        self.table = table
        self.slot = table.register(self)
        self._base = table.base(self.slot)
        self.n_lines = geometry.immix_lines_per_block
        #: Failed Immix lines: the count of the segment's fail marks.
        self.n_failed = 0
        self.objects: List[SimObject] = []
        #: Flagged by defragmentation / dynamic-failure handling.
        self.evacuate = False
        #: True until the first sweep after allocation into this block;
        #: the sticky (generational) collector sweeps only these.
        self.allocated_since_gc = False
        #: ``(oid, line)`` pairs recorded by the last sweep for live
        #: objects found overlapping a FAILED line. Only tests and
        #: ``benchmarks/test_kernels.py`` read them; the heap auditor's
        #: ``check_object_placement`` recomputes overlaps itself.
        self.mark_conflicts: List[Tuple[int, int]] = []
        #: Object ids whose evacuation copy failed and were restored at
        #: their old offset; they may legitimately overlap failed lines
        #: (the auditor tolerates exactly these).
        self.aborted_evacuations: Set[int] = set()
        self._line_gen = 0
        self._summary: Optional[FreeRunSummary] = None
        self._summary_gen = -1
        self._obj_gen = 0
        self._extent_objs: List[SimObject] = []
        self._extent_starts: List[int] = []
        self._extent_gen = -1
        #: The last sweep's survivor list and what it saw; see
        #: :meth:`rebuild_line_marks`.
        self._swept_objects: Optional[List[SimObject]] = None
        self._swept_obj_gen = -1
        self._swept_line_gen = -1
        self._swept_count = 0
        self._swept_live_lines = 0
        self._seed_failed_pages(pages)

    # ------------------------------------------------------------------
    @property
    def virtual_base(self) -> int:
        return self.virtual_index * self.geometry.block

    @property
    def line_states(self) -> LineSegment:
        """A view of this block's lines in the heap table.

        Built on each access, so the block itself holds nothing that
        refers back to it: a block that a sweep retires is freed by
        reference counting, with its run summary,
        and never waits for CPython's cyclic collector. Writes through
        the view invalidate the block's caches (:meth:`touch_lines`).
        """
        return LineSegment(self.table, self.slot, self)

    def touch_lines(self) -> None:
        """Invalidate the free-run summary after a line-state mutation.

        Internal mutators call this automatically; it is public for
        tests and tooling that poke ``line_states`` directly.
        """
        self._line_gen += 1
        self.table.touch()

    def touch_objects(self) -> None:
        """Invalidate the extent index after an object-list mutation.

        The stale index is dropped, not just outdated: it may hold dead
        objects whose ``block`` still names this block, a cycle that
        would keep a retired block alive until the end of the cell.
        """
        self._obj_gen += 1
        self._extent_objs = []
        self._extent_starts = []

    def _seed_failed_pages(self, pages: List[HeapPage]) -> None:
        """Seed every page's failed lines with two slice copies.

        Each failing page carries its Immix fail marks, computed once
        when the page was mapped; the block's segment is their
        concatenation (a perfect page contributes zeros), copied into
        the table's fail marks and, translated to FAILED, into its
        freshly registered FREE line states.
        """
        if not any(page.failed_bits for page in pages):
            return
        zero = bytes(self.geometry.immix_lines_per_page)
        marks = b"".join(
            [page.fail_marks if page.failed_bits else zero for page in pages]
        )
        base = self._base
        end = base + self.n_lines
        self.table.fail_marks[base:end] = marks
        self.table.lines[base:end] = marks.translate(_FAILED_WHERE_MARKED)
        self.n_failed = marks.count(1)
        self.touch_lines()

    def _seed_failed_pcm_line(self, page_slot: int, pcm_offset: int) -> Tuple[int, bool]:
        """Mark the Immix line poisoned by a failed PCM line.

        Returns ``(immix_line, newly_failed)``: a second failed 64 B PCM
        line landing in an already-poisoned (larger) Immix line is a
        duplicate hit, not a new false failure.
        """
        byte_offset = page_slot * self.geometry.page + pcm_offset * self.geometry.pcm_line
        immix_line = byte_offset // self.geometry.immix_line
        index = self._base + immix_line
        marks = self.table.fail_marks
        newly_failed = not marks[index]
        if newly_failed:
            marks[index] = 1
            self.n_failed += 1
        self.table.lines[index] = FAILED
        self.touch_lines()
        return immix_line, newly_failed

    def record_dynamic_failure(self, page_slot: int, pcm_offset: int) -> Tuple[int, bool]:
        """A line failed while the block is live; poison and flag.

        Returns ``(immix_line, newly_failed)``. Only a *newly* failed
        Immix line flags the block for evacuation — a duplicate hit
        (another PCM line of an already-poisoned Immix line) carries no
        live data to rescue, so forcing another evacuation collection
        for it would only double-count the false failure.
        """
        immix_line, newly_failed = self._seed_failed_pcm_line(page_slot, pcm_offset)
        if newly_failed:
            self.evacuate = True
        return immix_line, newly_failed

    # ------------------------------------------------------------------
    # Line accounting
    # ------------------------------------------------------------------
    def line_summary(self) -> FreeRunSummary:
        """Free runs + aggregates, cached until a line state mutates."""
        if self._summary_gen != self._line_gen:
            base = self._base
            self._summary = line_table.free_run_summary(
                self.table.lines[base : base + self.n_lines]
            )
            self._summary_gen = self._line_gen
        return self._summary  # type: ignore[return-value]

    def free_runs(self) -> List[Tuple[int, int]]:
        return self.line_summary().runs

    def free_line_count(self) -> int:
        return self.line_summary().free_lines

    def failed_line_count(self) -> int:
        return self.n_failed

    def failed_line_indices(self) -> List[int]:
        """The failed Immix lines, ascending, read off the segment's
        fail marks (the auditor and tests; the runtime reads marks)."""
        marks = self.table.fail_marks
        base = self._base
        end = base + self.n_lines
        found: List[int] = []
        i = marks.find(1, base, end)
        while i >= 0:
            found.append(i - base)
            i = marks.find(1, i + 1, end)
        return found

    def usable_bytes(self) -> int:
        return self.free_line_count() * self.geometry.immix_line

    def is_wholly_free(self) -> bool:
        """No live data and no failed lines: pages may return to the pool."""
        return not self.objects and not self.n_failed

    def is_empty_of_objects(self) -> bool:
        return not self.objects

    def largest_hole_bytes(self) -> int:
        return self.line_summary().largest_run * self.geometry.immix_line

    def fragmentation_index(self) -> float:
        return self.line_summary().fragmentation_index()

    # ------------------------------------------------------------------
    # Sweep support
    # ------------------------------------------------------------------
    def rebuild_line_marks(self, epoch: int, keep_old: bool = False) -> Tuple[int, int]:
        """Recompute line states from marked objects (the Immix sweep).

        Unmarked objects are dropped from the block; with ``keep_old``
        (sticky nursery sweeps) objects whose sticky bit is set are
        implicitly live. Returns ``(live_lines, lines_scanned)`` for the
        time model.

        The final per-line state follows the precedence FAILED >
        LIVE_PINNED > LIVE > FREE, which is independent of object
        visiting order (:meth:`_mark_spans`). Conflict recording is
        unchanged: a conflict is exactly a survivor's span crossing a
        line marked failed, reported in object order with ascending
        lines, and survivors are searched for conflicts only
        when some span covers a FAILED line.

        Each sweep records what it produced, and the next one re-derives
        only what changed since. If ``objects`` is still the recorded
        list, no line state changed, and the object generation advanced
        exactly as far as the list grew (a removal advances it but
        shrinks the list), the recorded survivors are a prefix of the
        list and the segment holds their marks. When that whole prefix
        still survives, an unchanged block returns the recorded counts
        and an appended one merges just the surviving suffix. Anything
        else is the full rebuild.
        """
        objects = self.objects
        if objects is self._swept_objects and self._line_gen == self._swept_line_gen:
            count = self._swept_count
            appended = self._obj_gen - self._swept_obj_gen
            if appended == len(objects) - count:
                for obj in islice(objects, count):
                    if obj.mark != epoch and not (keep_old and obj.old):
                        break
                else:
                    if not appended:
                        self.allocated_since_gc = False
                        return self._swept_live_lines, self.n_lines
                    survivors = [
                        obj
                        for obj in islice(objects, count, None)
                        if obj.mark == epoch or (keep_old and obj.old)
                    ]
                    if len(survivors) != appended:
                        objects[count:] = survivors
                    if self._mark_spans(survivors):
                        self.mark_conflicts = (
                            self.mark_conflicts + self._failed_line_conflicts(survivors)
                        )
                    return self._finish_sweep()
        # A FAILED mark is hardware truth; a survivor overlapping it
        # (pinned, or an aborted evacuation) must never mask it as LIVE
        # — that would let a later sweep hand the failed line back to
        # the allocator. Record the conflict (tests and the kernel
        # benchmarks read it).
        covered = self._rebuild(epoch, keep_old)
        self.mark_conflicts = (
            self._failed_line_conflicts(self.objects) if covered else []
        )
        return self._finish_sweep()

    def rebuild_before_evacuation(
        self, epoch: int, keep_old: bool = False
    ) -> Tuple[int, int]:
        """The full rebuild of a block flagged for evacuation, without
        the conflict search.

        Survivors, line marks and the returned counts are those of
        :meth:`rebuild_line_marks`. The evacuation that follows moves
        the survivors out and rebuilds the block again, and that
        rebuild records the conflicts of whatever stayed; until then
        the block records none.
        """
        self._rebuild(epoch, keep_old)
        self.mark_conflicts = []
        return self._finish_sweep()

    def _rebuild(self, epoch: int, keep_old: bool) -> bool:
        """Keep the survivors and re-derive every line state from them
        and the fail marks; True if a span covers a FAILED line."""
        base = self._base
        end = base + self.n_lines
        self.table.lines[base:end] = self.table.fail_marks[base:end].translate(
            _FAILED_WHERE_MARKED
        )
        survivors = [
            obj for obj in self.objects if obj.mark == epoch or (keep_old and obj.old)
        ]
        self.objects = survivors
        return self._mark_spans(survivors)

    def _mark_spans(self, survivors: List[SimObject]) -> bool:
        """Merge the survivors' line spans into the segment; True if a
        span covers a FAILED line.

        A line takes a span's state only over a lower one (FREE < LIVE <
        LIVE_PINNED < FAILED: :data:`_MERGE_LIVE`, :data:`_MERGE_PINNED`),
        so the result is the precedence whatever the order. Adjacent
        unpinned spans merge into one translate: allocation order tracks
        offset order within a block, so consecutive survivors usually
        touch consecutive lines.
        """
        states = self.table.lines
        base = self._base
        line_size = self.geometry.immix_line
        covered = False
        span_first = span_stop = -1
        for obj in survivors:
            offset = obj.offset
            first = base + offset // line_size
            stop = base + (offset + obj.size - 1) // line_size + 1
            if obj.pinned:
                span = states[first:stop]
                states[first:stop] = span.translate(_MERGE_PINNED)
                covered = covered or FAILED in span
            elif first <= span_stop and span_first <= stop:
                if first < span_first:
                    span_first = first
                if stop > span_stop:
                    span_stop = stop
            else:
                if span_first >= 0:
                    span = states[span_first:span_stop]
                    states[span_first:span_stop] = span.translate(_MERGE_LIVE)
                    covered = covered or FAILED in span
                span_first = first
                span_stop = stop
        if span_first >= 0:
            span = states[span_first:span_stop]
            states[span_first:span_stop] = span.translate(_MERGE_LIVE)
            covered = covered or FAILED in span
        return covered

    def _finish_sweep(self) -> Tuple[int, int]:
        """Invalidate the caches a sweep changes and record the sweep."""
        self.allocated_since_gc = False
        self.touch_lines()
        self.touch_objects()
        states = self.table.lines
        base = self._base
        n = self.n_lines
        live_lines = states.count(LIVE, base, base + n) + states.count(
            LIVE_PINNED, base, base + n
        )
        self._swept_objects = self.objects
        self._swept_obj_gen = self._obj_gen
        self._swept_line_gen = self._line_gen
        self._swept_count = len(self.objects)
        self._swept_live_lines = live_lines
        return live_lines, n

    def _failed_line_conflicts(
        self, survivors: List[SimObject]
    ) -> List[Tuple[int, int]]:
        """``(oid, line)`` for every failed line a survivor spans, in
        survivor order with ascending lines."""
        find = self.table.fail_marks.find
        base = self._base
        line_size = self.geometry.immix_line
        conflicts: List[Tuple[int, int]] = []
        for obj in survivors:
            first = base + obj.offset // line_size
            stop = base + (obj.offset + obj.size - 1) // line_size + 1
            i = find(1, first, stop)
            while i >= 0:
                conflicts.append((obj.oid, i - base))
                i = find(1, i + 1, stop)
        return conflicts

    # ------------------------------------------------------------------
    # Object extent index
    # ------------------------------------------------------------------
    def extent_index(self) -> Tuple[List[SimObject], List[int]]:
        """Objects sorted by start offset, plus the parallel offset list.

        Rebuilt lazily when the object list has changed since the last
        query; consumers bisect into the offset list. Sorting is by key
        (never by comparing objects), so a corrupted heap with two
        objects at one offset still indexes — the auditor relies on
        that to *report* the overlap rather than crash on it. Objects
        with no offset (mid-teardown) are excluded.
        """
        if self._extent_gen != self._obj_gen:
            objs = sorted(
                (o for o in self.objects if o.offset is not None),
                key=lambda o: o.offset,
            )
            self._extent_objs = objs
            self._extent_starts = [o.offset for o in objs]
            self._extent_gen = self._obj_gen
        return self._extent_objs, self._extent_starts

    def objects_overlapping_line(self, immix_line: int) -> List[SimObject]:
        """Live objects whose extent crosses ``immix_line``.

        Bisects into the extent index. Objects starting
        inside the line overlap it by definition; by the no-overlap
        invariant at most the single predecessor can span into the line
        from the left, so one extra check suffices.
        """
        line_size = self.geometry.immix_line
        line_start = immix_line * line_size
        line_end = line_start + line_size
        objs, starts = self.extent_index()
        lo = bisect_left(starts, line_start)
        hits: List[SimObject] = []
        if lo > 0:
            prev = objs[lo - 1]
            if prev.offset + prev.size > line_start:
                hits.append(prev)
        for i in range(lo, len(objs)):
            if starts[i] >= line_end:
                break
            hits.append(objs[i])
        return hits

    # ------------------------------------------------------------------
    # Object list mutation
    # ------------------------------------------------------------------
    def place(self, obj: SimObject, offset: int) -> None:
        """Bind an object to this block at ``offset`` (allocator use)."""
        obj.block = self
        obj.offset = offset
        obj.los_placement = None
        self.objects.append(obj)
        self.allocated_since_gc = True
        self._obj_gen += 1  # touch_objects(), sans the call overhead

    def remove_object(self, obj: SimObject) -> None:
        """Unlink ``obj`` (evacuation, promotion, or cell free)."""
        self.objects.remove(obj)
        self.touch_objects()

    def replace_objects(self, survivors: List[SimObject]) -> None:
        """Swap in a new object list wholesale (mark-sweep's sweep)."""
        self.objects = survivors
        self.touch_objects()

    def page_slot_of_line(self, immix_line: int) -> int:
        return immix_line * self.geometry.immix_line // self.geometry.page

    def __repr__(self) -> str:
        return (
            f"Block({self.virtual_index}, {len(self.objects)} objects, "
            f"{self.free_line_count()} free / {self.n_failed} failed lines)"
        )


def perfect_block(virtual_index: int, pages: List[HeapPage], geometry: Geometry) -> Block:
    """A block that must be hole-free (overflow fallback, LOS staging)."""
    if any(not page.is_perfect for page in pages):
        raise ValueError("perfect block requested with imperfect pages")
    return Block(virtual_index, pages, geometry)


def block_is_perfect(block: Block) -> bool:
    return not block.n_failed


def sort_key_most_holes(block: Block) -> int:
    """Defrag candidate ordering: most fragmented blocks first.

    Reads the cached free-line count, so sorting a candidate list costs
    one summary per block, not one table scan per comparison.
    """
    return -(block.free_line_count() + block.failed_line_count())


def sorted_defrag_candidates(blocks: Sequence[Block]) -> List[Block]:
    """Candidates ordered most-holes-first with the key computed once.

    Decorate-sort-undecorate over ``(key, position)`` pairs: each
    block's hole count is evaluated exactly once (a cache hit when the
    summary is current), and ties keep their input order, matching
    ``sorted(blocks, key=sort_key_most_holes)``.
    """
    decorated = sorted(
        (sort_key_most_holes(block), position)
        for position, block in enumerate(blocks)
    )
    return [blocks[position] for _key, position in decorated]
