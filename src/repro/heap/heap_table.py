"""Whole-heap structure-of-arrays line state (paper section 4.2).

The paper's line mark table is a byte-per-line side table with spare
encodings, exactly like MMTk's — which makes a *flat whole-heap* layout
natural: instead of every :class:`~.block.Block` owning a private
258-byte table, one :class:`HeapTable` holds a single ``bytearray`` of
line states and a parallel ``bytearray`` of failure marks for the
entire heap, and each block reads them through an ``(offset, length)``
view (:class:`LineSegment`, built on access so a block holds no
cycle). Free-run scanning, sweeping, and defrag-candidate ranking then
become single C-speed passes over the whole heap (``bytes.count`` /
``bytes.find``) rather than a Python loop over blocks.

Layout: segments are laid out back to back with one *guard byte*
between consecutive blocks. The guard holds :data:`UNMAPPED` (0xFF),
which is not FREE, so whole-heap scans can never merge a free run
across a block boundary — the per-block and whole-heap views agree by
construction. Retired segments (their block's pages returned to the
supply) are filled with :data:`UNMAPPED` too, so they drop out of every
whole-heap aggregate, and their slots are recycled LIFO for the next
block.

Generation-invalidated caches live at heap scope here — any
line-state mutation anywhere bumps :attr:`HeapTable.generation` and
lazily invalidates the whole-heap counts, mirroring the per-block
summary caches. The ``*_reference`` methods are naive per-slot
recounts for the heap auditor's kernel-cache coherence check; no
runtime path calls them.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..hardware.geometry import Geometry
from .line_table import FREE

#: Guard/retired filler: not a valid line state, never FREE, so flat
#: scans cannot run across block boundaries or count retired segments.
UNMAPPED = 0xFF


class HeapTable:
    """Flat line-state and failure-mark arrays for one heap.

    One table per collector; standalone blocks (tests, benchmarks)
    create a private single-segment table. Segment *slots* are handed
    out by :meth:`register` and recycled by :meth:`retire`.
    """

    __slots__ = (
        "geometry",
        "lines_per_block",
        "stride",
        "lines",
        "fail_marks",
        "owners",
        "generation",
        "_free_slots",
        "_free_count",
        "_free_count_gen",
        "_failed_count",
        "_failed_count_gen",
        "_retired_fill",
        "_zero_fill",
    )

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        self.lines_per_block = geometry.immix_lines_per_block
        #: Segment pitch: one block's lines plus the guard byte.
        self.stride = self.lines_per_block + 1
        self.lines = bytearray()
        self.fail_marks = bytearray()
        #: Slot -> owning block (None for retired slots).
        self.owners: List[Optional[object]] = []
        self.generation = 0
        self._free_slots: List[int] = []
        self._free_count = 0
        self._free_count_gen = -1
        self._failed_count = 0
        self._failed_count_gen = -1
        self._retired_fill = bytes([UNMAPPED]) * self.lines_per_block
        self._zero_fill = bytes(self.lines_per_block)

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def register(self, owner: object) -> int:
        """Claim a segment slot for ``owner``; lines start FREE."""
        if self._free_slots:
            slot = self._free_slots.pop()
            base = slot * self.stride
            end = base + self.lines_per_block
            self.lines[base:end] = self._zero_fill
            self.fail_marks[base:end] = self._zero_fill
            self.owners[slot] = owner
        else:
            slot = len(self.owners)
            self.owners.append(owner)
            self.lines.extend(self._zero_fill)
            self.lines.append(UNMAPPED)
            self.fail_marks.extend(self._zero_fill)
            self.fail_marks.append(0)
        self.touch()
        return slot

    def retire(self, slot: int) -> None:
        """Release a slot: blank both arrays and recycle the slot."""
        if self.owners[slot] is None:
            return
        base = slot * self.stride
        end = base + self.lines_per_block
        self.lines[base:end] = self._retired_fill
        self.fail_marks[base:end] = self._zero_fill
        self.owners[slot] = None
        self._free_slots.append(slot)
        self.touch()

    def base(self, slot: int) -> int:
        return slot * self.stride

    def active_slots(self) -> List[int]:
        """Registered (non-retired) slots, ascending."""
        return [slot for slot, owner in enumerate(self.owners) if owner is not None]

    def n_slots(self) -> int:
        return len(self.owners)

    # ------------------------------------------------------------------
    def touch(self) -> None:
        """Invalidate whole-heap aggregates after any line mutation."""
        self.generation += 1

    # ------------------------------------------------------------------
    # Whole-heap kernels and the auditor's per-slot recounts
    # ------------------------------------------------------------------
    def free_line_count(self) -> int:
        """FREE lines across the whole heap, one C-speed count.

        Guard bytes and retired segments hold UNMAPPED, so counting the
        flat array *is* the sum over active blocks.
        """
        if self._free_count_gen != self.generation:
            self._free_count = self.lines.count(FREE)
            self._free_count_gen = self.generation
        return self._free_count

    def free_line_count_reference(self) -> int:
        total = 0
        lines = self.lines
        for slot in self.active_slots():
            base = slot * self.stride
            for i in range(base, base + self.lines_per_block):
                if lines[i] == FREE:
                    total += 1
        return total

    def failed_line_count(self) -> int:
        """Failed lines across the whole heap (one count over marks)."""
        if self._failed_count_gen != self.generation:
            self._failed_count = self.fail_marks.count(1)
            self._failed_count_gen = self.generation
        return self._failed_count

    def failed_line_count_reference(self) -> int:
        total = 0
        marks = self.fail_marks
        for slot in self.active_slots():
            base = slot * self.stride
            for i in range(base, base + self.lines_per_block):
                if marks[i]:
                    total += 1
        return total

    def slots_with_free_lines(self) -> List[int]:
        """Ascending slots whose segment holds at least one FREE line.

        Fast kernel: ``find`` jumps from hit to hit, so the Python loop
        runs once per *matching block*, not once per line. This is the
        whole-heap scan behind allocation-state rebuilds.
        """
        lines = self.lines
        find = lines.find
        stride = self.stride
        slots: List[int] = []
        pos = find(FREE)
        while pos != -1:
            slot = pos // stride
            slots.append(slot)
            pos = find(FREE, (slot + 1) * stride)
        return slots

    def slots_with_free_lines_reference(self) -> List[int]:
        lines = self.lines
        slots: List[int] = []
        for slot in self.active_slots():
            base = slot * self.stride
            for i in range(base, base + self.lines_per_block):
                if lines[i] == FREE:
                    slots.append(slot)
                    break
        return slots

    def free_lines_in(self, slot: int) -> int:
        """FREE lines of one segment (bounded C count; defrag ranking)."""
        base = slot * self.stride
        return self.lines.count(FREE, base, base + self.lines_per_block)

    def failed_lines_in(self, slot: int) -> int:
        """Failed lines of one segment (bounded C count)."""
        base = slot * self.stride
        return self.fail_marks.count(1, base, base + self.lines_per_block)

    def segment_bytes(self, slot: int) -> bytes:
        """Immutable copy of one segment's line states."""
        base = slot * self.stride
        return bytes(self.lines[base : base + self.lines_per_block])

    def __repr__(self) -> str:
        active = sum(1 for owner in self.owners if owner is not None)
        return (
            f"HeapTable({active} active / {len(self.owners)} slots, "
            f"{len(self.lines)} line bytes)"
        )


class LineSegment:
    """One block's sequence-like view into the heap table.

    Quacks like the ``bytearray`` each block used to own: indexing,
    slicing, iteration, ``count``, ``translate``, ``bytes()``, and
    equality against byte strings all behave identically, so the
    :mod:`.line_table` kernels and existing tests work unchanged. A
    ``memoryview`` would not do — it lacks ``count``/``translate`` and
    would pin the table against resizing.

    Writes through the view bump the owning block's line generation
    (and therefore the heap table's), so direct pokes from tests and
    tooling can never leave a stale cached summary behind.
    """

    __slots__ = ("table", "slot", "base", "n_lines", "owner")

    def __init__(self, table: HeapTable, slot: int, owner: object) -> None:
        self.table = table
        self.slot = slot
        self.base = slot * table.stride
        self.n_lines = table.lines_per_block
        self.owner = owner

    def __len__(self) -> int:
        return self.n_lines

    def _index(self, index: int) -> int:
        if index < 0:
            index += self.n_lines
        if not 0 <= index < self.n_lines:
            raise IndexError(f"line {index} outside block of {self.n_lines} lines")
        return self.base + index

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.n_lines)
            if step == 1:
                return self.table.lines[self.base + start : self.base + stop]
            return bytes(self)[index]
        return self.table.lines[self._index(index)]

    def __setitem__(self, index: Union[int, slice], value) -> None:
        if isinstance(index, slice):
            start, stop, step = index.indices(self.n_lines)
            if step != 1:
                raise ValueError("line segments only support contiguous writes")
            data = bytes(value)
            if len(data) != stop - start:
                raise ValueError("line segment writes cannot resize the block")
            self.table.lines[self.base + start : self.base + stop] = data
        else:
            self.table.lines[self._index(index)] = value
        self.owner.touch_lines()

    def __iter__(self):
        return iter(bytes(self))

    def __bytes__(self) -> bytes:
        view = memoryview(self.table.lines)
        try:
            return bytes(view[self.base : self.base + self.n_lines])
        finally:
            view.release()

    def __eq__(self, other) -> bool:
        if isinstance(other, LineSegment):
            return bytes(self) == bytes(other)
        if isinstance(other, (bytes, bytearray, memoryview)):
            return bytes(self) == bytes(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def count(self, value: int, start: int = 0, end: Optional[int] = None) -> int:
        if end is None or end > self.n_lines:
            end = self.n_lines
        return self.table.lines.count(value, self.base + start, self.base + end)

    def translate(self, mapping: bytes) -> bytes:
        return bytes(self).translate(mapping)

    def __repr__(self) -> str:
        return f"LineSegment(slot={self.slot}, {self.n_lines} lines)"
