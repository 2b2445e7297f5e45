"""The simulated object model.

Objects are records, not bytes: each knows its size, where it lives
(block + offset, or a large-object placement), what it references, and
whether it is pinned. The collector traces the real reference graph and
moves real placements, so every paper invariant — "never allocate live
objects on failed lines", "never move pinned objects" — is checkable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

#: Allocation alignment in bytes (object sizes round up to this).
ALIGNMENT = 8

#: Object header bytes charged per object, echoing a JVM-ish header.
HEADER_BYTES = 8


#: :func:`aligned_size` as two constants, for per-object loops that
#: inline it: footprint = (requested + ALIGN_PAD) & ALIGN_MASK.
ALIGN_PAD = HEADER_BYTES + ALIGNMENT - 1
ALIGN_MASK = ~(ALIGNMENT - 1)


def aligned_size(requested: int) -> int:
    """Total footprint of an object of ``requested`` payload bytes."""
    if requested < 0:
        raise ValueError("object size must be >= 0")
    return (requested + ALIGN_PAD) & ALIGN_MASK


class SimObject:
    """One heap object."""

    __slots__ = (
        "oid",
        "size",
        "block",
        "offset",
        "los_placement",
        "refs",
        "pinned",
        "mark",
        "old",
        "moved_count",
    )

    def __init__(self, oid: int, size: int, pinned: bool = False) -> None:
        self.oid = oid
        self.size = size
        self.block = None  # repro.heap.block.Block when small/medium
        self.offset: Optional[int] = None  # byte offset within the block
        self.los_placement = None  # repro.heap.large_object_space.Placement
        #: Outgoing references. A leaf shares the empty tuple; the
        #: first stored reference gives the object its own list.
        self.refs: Sequence["SimObject"] = ()
        self.pinned = pinned
        #: Mark-state epoch; collectors compare against their epoch
        #: counter rather than clearing bits heap-wide every cycle.
        self.mark = 0
        #: Sticky mark bit: True once the object survived a collection.
        #: Nursery (sticky) collections treat old objects as implicitly
        #: live and do not trace into them.
        self.old = False
        self.moved_count = 0

    # ------------------------------------------------------------------
    @property
    def address(self) -> Optional[int]:
        """Virtual byte address, or None while unplaced."""
        if self.block is not None and self.offset is not None:
            return self.block.virtual_base + self.offset
        if self.los_placement is not None:
            return self.los_placement.virtual_base
        return None

    @property
    def is_large(self) -> bool:
        return self.los_placement is not None

    def add_ref(self, target: "SimObject") -> None:
        refs = self.refs
        if refs:
            refs.append(target)  # type: ignore[attr-defined]
        else:
            self.refs = [target]

    def clear_refs(self) -> None:
        self.refs = ()

    def line_span(self, line_size: int) -> range:
        """Block-relative Immix line indices this object covers."""
        if self.block is None or self.offset is None:
            raise ValueError(f"object {self.oid} has no block placement")
        first = self.offset // line_size
        last = (self.offset + self.size - 1) // line_size
        return range(first, last + 1)

    def __repr__(self) -> str:
        where = f"@{self.address:#x}" if self.address is not None else "unplaced"
        pin = " pinned" if self.pinned else ""
        return f"SimObject({self.oid}, {self.size}B, {where}{pin})"


class ObjectFactory:
    """Mints objects with unique ids and counts them (the VM's ``alloc``
    mints inline against the same counters)."""

    def __init__(self) -> None:
        self._next_oid = 0
        self.allocated_objects = 0
        self.allocated_bytes = 0

    def make(self, size: int, pinned: bool = False) -> SimObject:
        obj = SimObject(self._next_oid, aligned_size(size), pinned)
        self._next_oid += 1
        self.allocated_objects += 1
        self.allocated_bytes += obj.size
        return obj


def mark_live(roots: Iterable[SimObject], epoch: int) -> Tuple[int, int]:
    """The full-heap trace: mark, count and age in one pass.

    Marks every object reachable from ``roots`` with ``epoch``, sets its
    sticky ``old`` bit and returns ``(objects, bytes)`` reached. Objects
    already carrying ``epoch`` are treated as visited, so a collector
    advances its epoch once per trace. A child with no references is
    accounted where it is found rather than pushed; the totals are
    integer sums, so the visiting order cannot change them.
    """
    stack = []
    push = stack.append
    for obj in roots:
        if obj.mark != epoch:
            obj.mark = epoch
            push(obj)
    pop = stack.pop
    count = 0
    nbytes = 0
    while stack:
        obj = pop()
        count += 1
        nbytes += obj.size
        obj.old = True
        for child in obj.refs:
            if child.mark != epoch:
                child.mark = epoch
                if child.refs:
                    push(child)
                else:
                    count += 1
                    nbytes += child.size
                    child.old = True
    return count, nbytes
