"""Naive reference implementations of the heap and OS kernels, for tests only.

Each function here is the plain per-line, per-slot or per-bit loop that
a kernel in ``src/`` replaced. The property suites in ``tests/heap/``
check every kernel against its oracle, and ``benchmarks/test_kernels.py``
times the kernels against the same oracles. Nothing in ``src/`` calls
this module.

The module also builds the deterministic synthetic inputs both suites
share: line tables across occupancy profiles, populated blocks and a
randomly worn OS failure table.
"""

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import OutOfMemoryError
from repro.hardware.geometry import Geometry
from repro.heap.block import Block
from repro.heap.heap_table import HeapTable
from repro.heap.line_table import (
    FAILED,
    FREE,
    LIVE,
    LIVE_PINNED,
    FreeRunSummary,
    free_runs_reference,
)
from repro.heap.object_model import ObjectFactory, SimObject
from repro.heap.page_supply import (
    SPAN_BLOCKS,
    SPAN_FREE,
    SPAN_LOS,
    HeapPage,
    PageSupply,
    heap_pages,
)
from repro.osim.failure_table import FailureTable

#: Sweep epoch used for all synthetic blocks (any non-zero value).
EPOCH = 1


# ----------------------------------------------------------------------
# Line tables
# ----------------------------------------------------------------------
def free_run_summary_reference(line_states) -> FreeRunSummary:
    """Runs from the per-line scan; totals accumulated from run lengths."""
    runs = free_runs_reference(line_states)
    free_lines = 0
    largest = 0
    for _start, length in runs:
        free_lines += length
        if length > largest:
            largest = length
    return FreeRunSummary(runs, free_lines, largest)


def largest_free_run_reference(line_states) -> int:
    return free_run_summary_reference(line_states).largest_run


def fragmentation_index_reference(line_states) -> float:
    """The double-scan formulation: count, then the run list."""
    total_free = sum(1 for state in line_states if state == FREE)
    if total_free == 0:
        return 0.0
    return 1.0 - largest_free_run_reference(line_states) / total_free


# ----------------------------------------------------------------------
# Objects
# ----------------------------------------------------------------------
def reachable_from(roots: Iterable[SimObject], epoch: int) -> List[SimObject]:
    """Transitive closure over the reference graph (the oracle for
    :func:`repro.heap.object_model.mark_live`).

    Marks every reached object with ``epoch`` and returns them in trace
    order. Objects already carrying ``epoch`` are treated as visited.
    """
    stack = [obj for obj in roots if obj.mark != epoch]
    for obj in stack:
        obj.mark = epoch
    reached: List[SimObject] = []
    while stack:
        obj = stack.pop()
        reached.append(obj)
        for child in obj.refs:
            if child.mark != epoch:
                child.mark = epoch
                stack.append(child)
    return reached


def mark_live_reference(roots: Iterable[SimObject], epoch: int) -> Tuple[int, int]:
    """The two-pass full trace: close over the graph, then sum and age."""
    live = reachable_from(roots, epoch)
    for obj in live:
        obj.old = True
    return len(live), sum(obj.size for obj in live)


# ----------------------------------------------------------------------
# Pages
# ----------------------------------------------------------------------
def pages_from_offsets(
    failures: Dict[int, Iterable[int]], geometry: Geometry, n_pages: int
) -> List[HeapPage]:
    """Heap pages ``0..n_pages-1``; page *i* fails at the PCM line
    offsets ``failures[i]`` (perfect when absent)."""
    return heap_pages(
        {
            index: sum(1 << offset for offset in set(failures.get(index, ())))
            for index in range(n_pages)
        },
        geometry,
    )


def page_offsets_reference(bits: int, geometry: Geometry) -> List[int]:
    """Decode a page bitmap one bit position at a time."""
    return [i for i in range(geometry.lines_per_page) if bits >> i & 1]


# ----------------------------------------------------------------------
# Blocks
# ----------------------------------------------------------------------
def seed_failed_lines_reference(
    pages: Sequence[HeapPage], geometry: Geometry
) -> Tuple[bytes, bytes, frozenset]:
    """A block's seeded segment from its pages, one failed PCM offset at
    a time: ``(line states, fail marks, failed Immix lines)``.

    The per-offset path blocks took before pages carried Immix fail
    marks: each offset's byte address picks the Immix line it poisons.
    """
    n_lines = geometry.immix_lines_per_block
    states = bytearray(n_lines)
    marks = bytearray(n_lines)
    failed = set()
    for slot, page in enumerate(pages):
        for offset in page_offsets_reference(page.failed_bits, geometry):
            byte_offset = slot * geometry.page + offset * geometry.pcm_line
            line = byte_offset // geometry.immix_line
            failed.add(line)
            states[line] = FAILED
            marks[line] = 1
    return bytes(states), bytes(marks), frozenset(failed)


def seed_block_reference(block: Block, offsets_by_slot: Sequence[Iterable[int]]) -> None:
    """Seed a block built on perfect pages with failed PCM offsets, the
    way blocks did when pages carried offset sets: collect the poisoned
    Immix lines into a set, then write each line's state and mark."""
    geometry = block.geometry
    failed = set()
    for slot, offsets in enumerate(offsets_by_slot):
        page_base = slot * geometry.page
        failed.update(
            [(page_base + offset * geometry.pcm_line) // geometry.immix_line
             for offset in offsets]
        )
    if failed:
        base = block.table.base(block.slot)
        lines = block.table.lines
        marks = block.table.fail_marks
        for line in failed:
            lines[base + line] = FAILED
            marks[base + line] = 1
        block.n_failed = len(failed)
        block.touch_lines()


def block_segment(block: Block) -> Tuple[bytes, bytes, frozenset]:
    """The same triple read off a block: its heap-table segment's line
    states and fail marks, and its derived failed-line set."""
    base = block.table.base(block.slot)
    end = base + block.n_lines
    return (
        bytes(block.table.lines[base:end]),
        bytes(block.table.fail_marks[base:end]),
        frozenset(block.failed_line_indices()),
    )


def mark_failed_lines(block: Block, lines: Iterable[int]) -> None:
    """Mark Immix lines failed in the block's fail marks and count,
    leaving its line states alone (a sweep re-stamps them)."""
    base = block.table.base(block.slot)
    for line in lines:
        if not block.table.fail_marks[base + line]:
            block.table.fail_marks[base + line] = 1
            block.n_failed += 1
    block.touch_lines()


def rebuild_line_marks_reference(
    block: Block, epoch: int, keep_old: bool = False
) -> Tuple[int, int]:
    """The per-line Immix sweep, resolving state precedence line by line."""
    states = block.line_states
    for line in range(block.n_lines):
        states[line] = FREE
    for line in block.failed_line_indices():
        states[line] = FAILED
    survivors: List[SimObject] = []
    conflicts: List[Tuple[int, int]] = []
    line_size = block.geometry.immix_line
    for obj in block.objects:
        if obj.mark != epoch and not (keep_old and obj.old):
            continue
        survivors.append(obj)
        state = LIVE_PINNED if obj.pinned else LIVE
        for line in obj.line_span(line_size):
            if states[line] == FAILED:
                conflicts.append((obj.oid, line))
                continue
            if states[line] != LIVE_PINNED:
                states[line] = state
    block.mark_conflicts = conflicts
    block.objects = survivors
    block.allocated_since_gc = False
    block.touch_lines()
    block.touch_objects()
    live_lines = states.count(LIVE) + states.count(LIVE_PINNED)
    return live_lines, block.n_lines


def objects_overlapping_line_reference(block: Block, immix_line: int) -> List[SimObject]:
    """A scan of the whole object list."""
    line_size = block.geometry.immix_line
    return [obj for obj in block.objects if immix_line in obj.line_span(line_size)]


def sorted_defrag_candidates_reference(blocks: Sequence[Block]) -> List[Block]:
    """Most holes first, each key recounted from the line table."""
    return sorted(
        blocks,
        key=lambda block: -(
            free_run_summary_reference(block.line_states).free_lines
            + len(block.failed_line_indices())
        ),
    )


# ----------------------------------------------------------------------
# Page supply
# ----------------------------------------------------------------------
class LinearScanPageSupply(PageSupply):
    """A page supply that finds spans by scanning all of them in order,
    as :class:`PageSupply` did before it kept per-span flag bytes."""

    def take_block_pages(self):
        for span in self._spans:
            if span.owner == SPAN_FREE and span.fully_free:
                span.owner = SPAN_BLOCKS
                taken = list(span.free)
                span.free = []
                span.n_free_perfect = 0
                self._free_pages -= len(taken)
                self.relaxed_pages_taken += len(taken)
                return taken
        return None

    def fussy_page(self, allow_borrow: bool = True) -> HeapPage:
        self.fussy_pages_taken += 1
        for span in self._spans:
            if span.owner == SPAN_LOS and span.n_free_perfect:
                for page in span.free:
                    if not page.failed_bits:
                        span.free.remove(page)
                        span.n_free_perfect -= 1
                        self._free_pages -= 1
                        self.accountant.record_perfect_hit()
                        return page
        for span in self._spans:
            if span.owner == SPAN_FREE and span.fully_free and span.n_free_perfect:
                span.owner = SPAN_LOS
                self.los_span_claims += 1
                page = [page for page in span.free if page.is_perfect][0]
                span.free.remove(page)
                span.n_free_perfect -= 1
                self._free_pages -= 1
                self.accountant.record_perfect_hit()
                return page
        if not allow_borrow:
            self.fussy_pages_taken -= 1
            raise OutOfMemoryError("no perfect PCM page; collect before borrowing")
        parked = self._steal_parkable()
        if parked is None:
            self.fussy_pages_taken -= 1
            raise OutOfMemoryError("no free page left to charge the borrow penalty")
        self._parked.append(parked)
        self.accountant.borrow()
        page = HeapPage(self._next_borrow_index, borrowed=True)
        self._next_borrow_index -= 1
        self._borrowed_held.append(page)
        return page


# ----------------------------------------------------------------------
# Whole-heap table
# ----------------------------------------------------------------------
def free_lines_in_reference(table: HeapTable, slot: int) -> int:
    base = table.base(slot)
    lines = table.lines
    return sum(1 for i in range(base, base + table.lines_per_block) if lines[i] == FREE)


def failed_lines_in_reference(table: HeapTable, slot: int) -> int:
    base = table.base(slot)
    marks = table.fail_marks
    return sum(1 for i in range(base, base + table.lines_per_block) if marks[i])


# ----------------------------------------------------------------------
# OS failure table
# ----------------------------------------------------------------------
def failed_offsets_reference(table: FailureTable, page_index: int) -> frozenset:
    """Decode a page bitmap one bit position at a time."""
    bitmap = table.bitmap(page_index)
    return frozenset(
        i for i in range(table.geometry.lines_per_page) if bitmap >> i & 1
    )


def imperfect_pages_reference(table: FailureTable) -> List[int]:
    return sorted(page for page in range(table.n_pages) if table.bitmap(page))


def failed_line_count_reference(table: FailureTable) -> int:
    return sum(
        len(failed_offsets_reference(table, page))
        for page in imperfect_pages_reference(table)
    )


def compressed_size_bytes_reference(table: FailureTable) -> int:
    """The run-length estimate, counting runs bit by bit."""
    per_page = table.geometry.lines_per_page
    total = 0
    for page in imperfect_pages_reference(table):
        bitmap = table.bitmap(page)
        runs = 0
        previous = None
        for i in range(per_page):
            bit = bitmap >> i & 1
            if bit != previous:
                runs += 1
                previous = bit
        total += 2 + min(runs, per_page // 8)
    return total


def load_lines_reference(table: FailureTable, failed_lines: Iterable[int]) -> None:
    """Load failed lines into a failure table one line at a time."""
    for line in failed_lines:
        table.record_global_line(int(line))


def absorb_static_failures_reference(os_mm, failed_lines: Iterable[int]) -> None:
    """Absorb an aged module's failures into a fresh OS one line at a time.

    The per-line loop ``OsMemoryManager`` ran at construction before the
    batch loader: record each sorted line in the failure table and on
    its page descriptor, then move the degraded pages out of the
    perfect pool in the order they first failed.
    """
    per_page = os_mm.geometry.lines_per_page
    degraded: List[int] = []
    for global_line in sorted(failed_lines):
        page_index, offset = divmod(global_line, per_page)
        if os_mm.failure_table.record_failure(page_index, offset):
            degraded.append(page_index)
        os_mm.pools.page(page_index).record_failure(offset)
    os_mm.pools.note_pages_degraded(degraded)


def os_absorption_state(os_mm) -> tuple:
    """Every piece of OS state absorption writes, for exact comparison:
    the failure table's bitmaps, count, imperfect list and decoded
    offsets, the pool deques in order, and each page descriptor's
    bitmap."""
    table = os_mm.failure_table
    pools = os_mm.pools
    return (
        table.save(),
        table.failed_line_count(),
        table.imperfect_pages(),
        {page: table.failed_offsets(page) for page in range(table.n_pages)},
        list(pools._perfect),
        list(pools._imperfect),
        list(pools._dram),
        {index: page.failed_bits for index, page in pools.pages.items()},
    )


# ----------------------------------------------------------------------
# Deterministic synthetic inputs
# ----------------------------------------------------------------------
def synthetic_line_tables(n_lines: int, seed: int = 0) -> Dict[str, bytearray]:
    """Named line-table profiles spanning the interesting occupancies.

    ``fragmented`` is the production shape — a post-sweep block whose
    free space sits in a handful of multi-line holes between live spans
    with occasional failed lines. ``checkerboard`` (single-line
    alternation) is the adversarial worst case for run-edge scanning;
    it cannot arise from bump allocation but keeps the kernels honest.
    """
    n = n_lines
    rng = random.Random(seed)
    fragmented = bytearray([LIVE]) * n
    cursor = 0
    while cursor < n:
        cursor += rng.randrange(6, 16)
        hole = rng.randrange(2, 7)
        for line in range(cursor, min(n, cursor + hole)):
            fragmented[line] = FREE
        cursor += hole
        if rng.random() < 0.15 and cursor < n:
            fragmented[cursor] = FAILED
    checker = bytearray(LIVE if i % 2 else FREE for i in range(n))
    edges = bytearray([LIVE]) * n
    edges[0] = FREE
    edges[n - 1] = FREE
    return {
        "all_free": bytearray(n),
        "all_failed": bytearray([FAILED]) * n,
        "edge_runs": edges,
        "fragmented": fragmented,
        "checkerboard": checker,
    }


#: Object size mixes for synthetic blocks: ``small`` objects fit inside
#: one 256 B line (the DaCapo-derived common case), ``multi_line``
#: objects span several lines each (arrays, buffers) — the population
#: where per-line sweep work dominates per-object work.
SMALL_OBJECT_SIZES = (16, 24, 48, 56, 120, 248, 504)
MULTI_LINE_OBJECT_SIZES = (1016, 2040, 4088, 8184)


def build_synthetic_block(
    geometry: Geometry,
    seed: int = 0,
    fill_fraction: float = 0.7,
    pinned_weight: float = 0.05,
    failed_pcm_lines: int = 6,
    object_sizes: Sequence[int] = SMALL_OBJECT_SIZES,
    table: Optional[HeapTable] = None,
    virtual_index: int = 0,
) -> Block:
    """A deterministic, realistically fragmented block.

    Pages carry a few failed PCM offsets (seeding FAILED Immix lines);
    objects bump-fill the free runs up to ``fill_fraction`` with all of
    them marked at :data:`EPOCH`, so repeated ``rebuild_line_marks(EPOCH)``
    calls are stable (every object survives every sweep).
    """
    rng = random.Random(seed)
    failed_by_page: Dict[int, set] = {}
    for _ in range(failed_pcm_lines):
        slot = rng.randrange(geometry.pages_per_block)
        failed_by_page.setdefault(slot, set()).add(
            rng.randrange(geometry.lines_per_page)
        )
    pages = pages_from_offsets(failed_by_page, geometry, geometry.pages_per_block)
    block = Block(virtual_index, pages, geometry, table=table)
    factory = ObjectFactory()
    for start, length in list(block.free_runs()):
        cursor = start * geometry.immix_line
        limit = cursor + int(length * geometry.immix_line * fill_fraction)
        while cursor < limit:
            obj = factory.make(
                rng.choice(object_sizes),
                pinned=rng.random() < pinned_weight,
            )
            if cursor + obj.size > limit:
                break
            obj.mark = EPOCH
            block.place(obj, cursor)
            cursor += obj.size
    block.rebuild_line_marks(EPOCH)
    return block


def build_synthetic_failure_table(
    geometry: Geometry, n_pages: int = 256, failures: int = 600, seed: int = 0
) -> FailureTable:
    rng = random.Random(seed)
    table = FailureTable(n_pages, geometry)
    total_lines = n_pages * geometry.lines_per_page
    for line in rng.sample(range(total_lines), min(failures, total_lines)):
        table.record_global_line(line)
    return table
