"""One checker per layer of the cooperative stack.

Each checker recomputes a layer's view of the failure/heap state from
first principles and compares it against the state the layer actually
maintains. The layers and their authoritative chains:

* hardware — ECC-exhausted lines, redirection maps (permutations with a
  contiguous failed run at the region's parity edge);
* os — failure-table bitmaps mirror the module's failed logical lines,
  page pools partition the page universe, the failure buffer is drained
  after every service;
* heap — per-block line marks match a recomputation from the block's
  objects and its segment's fail marks, those marks match the false-
  failure expansion of its pages' failure bitmaps, objects never
  overlap each other or a failed line;
* runtime — every heap page has exactly one owner (block, LOS, free
  span, or parked penalty), the page directory mirrors ownership, and
  byte/debt accounting conserves.

Checkers tolerate the model's documented transients: line marks lag
allocation until the next sweep (``Block.place`` does not mark), an
evacuation-flagged block legitimately holds live objects on failed
lines until the forced collection runs, and pinned or abort-restored
objects may overlap failed lines permanently (the paper's "never move
pinned objects" rule).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from ..collectors.immix import ImmixCollector
from ..hardware.clustering import region_direction
from ..hardware.geometry import set_bits
from ..heap import line_table, object_model
from ..heap.heap_table import UNMAPPED
from ..heap.page_supply import SPAN_FREE, SPAN_LOS
from ..heap.line_table import FAILED, FREE, LIVE, LIVE_PINNED
from ..osim.page import PageKind
from .audit import Violation


def _expected_line_states(block, failed: Set[int]) -> bytearray:
    """Recompute a block's line marks the way the sweep would."""
    states = bytearray(block.n_lines)
    for line in failed:
        states[line] = FAILED
    line_size = block.geometry.immix_line
    for obj in block.objects:
        state = LIVE_PINNED if obj.pinned else LIVE
        for line in obj.line_span(line_size):
            if states[line] == FAILED:
                continue
            if states[line] != LIVE_PINNED:
                states[line] = state
    return states


def _overlap_tolerated(block, obj) -> bool:
    """Live-on-failed overlaps the model legitimately reaches."""
    return obj.pinned or block.evacuate or obj.oid in block.aborted_evacuations


# ======================================================================
# Heap layer
# ======================================================================
def check_block_line_marks(vm, violations: List[Violation], trigger: str) -> None:
    """Per block: actual line marks vs a recomputation from objects."""
    collector = vm.collector
    if not isinstance(collector, ImmixCollector):
        return
    for block in collector.blocks:
        failed = set(block.failed_line_indices())
        expected = _expected_line_states(block, failed)
        actual = block.line_states
        for line in range(block.n_lines):
            exp, act = expected[line], actual[line]
            if exp == act:
                continue
            if block.allocated_since_gc and act in (FREE, LIVE) and exp in (
                LIVE,
                LIVE_PINNED,
            ):
                # place() does not mark lines; marks lag allocation
                # until the next sweep. Only the stale direction is
                # legal — a mark claiming MORE than the objects do is
                # still a violation.
                continue
            invariant = (
                "failed-line-masked" if line in failed else "line-mark-drift"
            )
            violations.append(
                Violation(
                    invariant=invariant,
                    layer="heap",
                    block=block.virtual_index,
                    line=line,
                    message="line mark disagrees with recomputation from "
                    "the block's objects and fail marks",
                    expected=line_table.state_name(exp),
                    actual=line_table.state_name(act),
                )
            )


def check_object_placement(vm, violations: List[Violation], trigger: str) -> None:
    """Objects stay in bounds, never overlap, never sit on failed lines.

    Reads the block's extent index (the same offset-sorted view the
    bisect kernels consume) rather than re-sorting the object list —
    the auditor validates the heap *through* the cached summaries, and
    :func:`check_kernel_caches` separately proves those summaries match
    a reference recomputation.
    """
    collector = vm.collector
    if not isinstance(collector, ImmixCollector):
        return
    for block in collector.blocks:
        line_size = block.geometry.immix_line
        failed = set(block.failed_line_indices())
        placed, _starts = block.extent_index()
        prev_end = 0
        prev_oid = None
        for obj in placed:
            if obj.offset + obj.size > block.geometry.block:
                violations.append(
                    Violation(
                        invariant="object-out-of-bounds",
                        layer="heap",
                        block=block.virtual_index,
                        message=f"object {obj.oid} ends at byte "
                        f"{obj.offset + obj.size}",
                        expected=f"<= block size {block.geometry.block}",
                        actual=f"offset {obj.offset} + size {obj.size}",
                    )
                )
            if obj.offset < prev_end:
                violations.append(
                    Violation(
                        invariant="object-overlap",
                        layer="heap",
                        block=block.virtual_index,
                        message=f"objects {prev_oid} and {obj.oid} overlap",
                        expected=f"object {obj.oid} to start at or after "
                        f"byte {prev_end}",
                        actual=f"starts at byte {obj.offset}",
                    )
                )
            prev_end = max(prev_end, obj.offset + obj.size)
            prev_oid = obj.oid
            for line in obj.line_span(line_size):
                if line in failed and not _overlap_tolerated(block, obj):
                    violations.append(
                        Violation(
                            invariant="object-on-failed-line",
                            layer="heap",
                            block=block.virtual_index,
                            line=line,
                            message=f"live object {obj.oid} overlaps a "
                            "failed line with no evacuation pending",
                            expected="failed lines hold no live data",
                            actual=f"object spans lines "
                            f"{obj.line_span(line_size)}",
                        )
                    )


def check_block_failure_seeding(vm, violations: List[Violation], trigger: str) -> None:
    """A block's fail marks == Immix lines poisoned by its pages' holes,
    and its failed-line count == the number of marks."""
    collector = vm.collector
    if not isinstance(collector, ImmixCollector):
        return
    geometry = vm.geometry
    for block in collector.blocks:
        expected: Set[int] = set()
        for slot, page in enumerate(block.pages):
            for offset in set_bits(page.failed_bits):
                byte_offset = slot * geometry.page + offset * geometry.pcm_line
                expected.add(byte_offset // geometry.immix_line)
        actual = block.failed_line_indices()
        if sorted(expected) != actual or block.n_failed != len(actual):
            violations.append(
                Violation(
                    invariant="failed-line-seeding",
                    layer="heap",
                    block=block.virtual_index,
                    message="block fail marks disagree with the "
                    "false-failure expansion of its pages' failure maps",
                    expected=f"lines {sorted(expected)}",
                    actual=f"lines {actual} (n_failed {block.n_failed})",
                )
            )


# ======================================================================
# OS layer
# ======================================================================
def check_failure_chain(vm, violations: List[Violation], trigger: str) -> None:
    """VM failure maps ⊆ OS failure table == module failed lines."""
    os_mm = vm.os
    pcm = vm.injector.pcm
    geometry = vm.geometry
    per_page = geometry.lines_per_page

    # OS table vs hardware: the table must record exactly the logical
    # lines the module reports failed (static absorb + serviced drains).
    table_lines: Set[int] = set()
    for page_index in os_mm.failure_table.imperfect_pages():
        for offset in os_mm.failure_table.failed_offsets(page_index):
            table_lines.add(page_index * per_page + offset)
    hw_lines = pcm.failed_logical_lines()
    if table_lines != hw_lines:
        missing = sorted(hw_lines - table_lines)[:8]
        extra = sorted(table_lines - hw_lines)[:8]
        violations.append(
            Violation(
                invariant="failure-table-sync",
                layer="os",
                message="OS failure table diverged from the module's "
                "failed logical lines",
                expected=f"{len(hw_lines)} hardware lines "
                f"(first unrecorded: {missing})",
                actual=f"{len(table_lines)} table lines "
                f"(first phantom: {extra})",
            )
        )

    # VM view vs OS table: every hole the runtime believes in must be
    # backed by the OS table. (Subset, not equality: a dynamic failure
    # on a page currently free in the VM's supply never reaches the
    # collector's per-page view.) Whole-page retirement — the DRAM-era
    # page_retirement flag or a MigrantStore-style pool policy —
    # fabricates whole-page holes VM-side on purpose, so the comparison
    # is meaningless there.
    if not getattr(vm, "_retire_pages", vm.config.page_retirement):
        for page, where in _vm_heap_pages(vm):
            if page.index < 0 or page.index >= os_mm.n_pcm_pages:
                continue
            os_bits = os_mm.failure_table.bitmap(page.index)
            extra_bits = page.failed_bits & ~os_bits
            if extra_bits:
                violations.append(
                    Violation(
                        invariant="vm-failure-map-subset",
                        layer="os",
                        page=page.index,
                        message=f"runtime page ({where}) records failed "
                        "offsets the OS failure table never saw",
                        expected=f"subset of OS offsets {set_bits(os_bits)}",
                        actual=f"extra offsets {set_bits(extra_bits)}",
                    )
                )

    # The failure buffer must be drained once service completes. The
    # upcall audit runs *inside* service_failures, before the OS
    # acknowledges what it received, so entries are expected there.
    if trigger != "upcall" and len(pcm.failure_buffer) != 0:
        pending = [f"{e.address:#x}" for e in pcm.failure_buffer.pending()[:8]]
        violations.append(
            Violation(
                invariant="failure-buffer-drained",
                layer="os",
                message="failure buffer holds entries outside a service "
                "window (the OS drain/acknowledge cycle leaked them)",
                expected="0 entries",
                actual=f"{len(pcm.failure_buffer)} entries at {pending}",
            )
        )


def check_os_pools(vm, violations: List[Violation], trigger: str) -> None:
    """Pools partition the page universe; descriptors match the table."""
    os_mm = vm.os
    pools = os_mm.pools
    membership: Dict[int, List[str]] = {}
    for name, indices in (
        ("perfect", pools._perfect),
        ("imperfect", pools._imperfect),
        ("dram", pools._dram),
        ("allocated", pools._allocated),
    ):
        for index in indices:
            membership.setdefault(index, []).append(name)
    for index, descriptor in pools.pages.items():
        owners = membership.get(index, [])
        if len(owners) != 1:
            violations.append(
                Violation(
                    invariant="page-pool-partition",
                    layer="os",
                    page=index,
                    message="every physical page belongs to exactly one "
                    "pool or the allocated set",
                    expected="exactly one owner",
                    actual=f"owners {owners or ['none']}",
                )
            )
            continue
        owner = owners[0]
        if owner == "perfect" and not descriptor.is_perfect:
            violations.append(
                Violation(
                    invariant="perfect-pool-purity",
                    layer="os",
                    page=index,
                    message="imperfect page sitting in the perfect pool",
                    expected="no failed offsets",
                    actual=f"offsets {set_bits(descriptor.failed_bits)}",
                )
            )
        if owner == "imperfect" and descriptor.is_perfect:
            violations.append(
                Violation(
                    invariant="imperfect-pool-purity",
                    layer="os",
                    page=index,
                    message="perfect page sitting in the imperfect pool",
                    expected="at least one failed offset",
                    actual="page descriptor is perfect",
                )
            )
        if owner == "dram" and descriptor.kind is not PageKind.DRAM:
            violations.append(
                Violation(
                    invariant="dram-pool-purity",
                    layer="os",
                    page=index,
                    message="PCM page sitting in the DRAM pool",
                    expected="kind DRAM",
                    actual=f"kind {descriptor.kind.name}",
                )
            )
        if (
            descriptor.kind is PageKind.PCM
            and index < os_mm.n_pcm_pages
            and descriptor.failed_bits != os_mm.failure_table.bitmap(index)
        ):
            violations.append(
                Violation(
                    invariant="page-descriptor-sync",
                    layer="os",
                    page=index,
                    message="page descriptor's failure bitmap diverged from "
                    "the failure table's",
                    expected=f"table offsets "
                    f"{set_bits(os_mm.failure_table.bitmap(index))}",
                    actual=f"descriptor offsets "
                    f"{set_bits(descriptor.failed_bits)}",
                )
            )
    for index in membership:
        if index not in pools.pages:
            violations.append(
                Violation(
                    invariant="page-pool-partition",
                    layer="os",
                    page=index,
                    message="pool references a page with no descriptor",
                    expected="an entry in pools.pages",
                    actual=f"owners {membership[index]}",
                )
            )


# ======================================================================
# Hardware layer
# ======================================================================
def check_redirection_maps(vm, violations: List[Violation], trigger: str) -> None:
    """Installed maps are permutations with the failed run at the edge."""
    pcm = vm.injector.pcm
    if pcm.clustering is None:
        return
    geometry = vm.geometry
    per_region = geometry.lines_per_region
    hw_lines = pcm.failed_logical_lines()
    physical_per_region = np.bincount(
        pcm.failed_physical_indices() // per_region
    ).tolist()
    for region_index, rmap in sorted(pcm.clustering._maps.items()):
        if sorted(rmap.logical_to_physical) != list(range(rmap.n_lines)):
            violations.append(
                Violation(
                    invariant="redirection-permutation",
                    layer="hardware",
                    message=f"region {region_index} redirection map is "
                    "not a permutation of its line offsets",
                    expected=f"a permutation of 0..{rmap.n_lines - 1}",
                    actual=f"{len(set(rmap.logical_to_physical))} distinct "
                    f"entries over {rmap.n_lines} slots",
                )
            )
        if rmap.direction != region_direction(region_index):
            violations.append(
                Violation(
                    invariant="redirection-parity",
                    layer="hardware",
                    message=f"region {region_index} clusters failures at "
                    "the wrong edge for its parity",
                    expected=region_direction(region_index),
                    actual=rmap.direction,
                )
            )
        failed_zone = rmap.failed_logical_offsets()
        if len(failed_zone) != rmap.failed_count:
            violations.append(
                Violation(
                    invariant="redirection-failed-run",
                    layer="hardware",
                    message=f"region {region_index} failed-zone length "
                    "disagrees with its failure count",
                    expected=f"{rmap.failed_count} offsets",
                    actual=f"range {failed_zone}",
                )
            )
        base = region_index * per_region
        unreported = [
            base + offset for offset in failed_zone if base + offset not in hw_lines
        ]
        if unreported:
            violations.append(
                Violation(
                    invariant="redirection-reported",
                    layer="hardware",
                    message=f"region {region_index} map holds failed "
                    "slots the module never reported as failed lines",
                    expected="every failed-zone slot in "
                    "pcm.failed_logical_lines()",
                    actual=f"unreported logical lines {unreported[:8]}",
                )
            )
        # One-way count check: software may observe extra failures in a
        # region (statically injected pre-clustered maps never install
        # hardware maps), but the map must never exceed the physical
        # failure count of its region.
        physical_in_region = (
            physical_per_region[region_index]
            if region_index < len(physical_per_region)
            else 0
        )
        if rmap.failed_count > physical_in_region:
            violations.append(
                Violation(
                    invariant="redirection-overcount",
                    layer="hardware",
                    message=f"region {region_index} map records more "
                    "failures than physically occurred in the region",
                    expected=f"<= {physical_in_region} physical failures",
                    actual=f"failed_count {rmap.failed_count}",
                )
            )


# ======================================================================
# Runtime layer
# ======================================================================
def _vm_heap_pages(vm) -> List[Tuple[object, str]]:
    """Every live HeapPage the runtime tracks, with its owner label."""
    pages: List[Tuple[object, str]] = []
    supply = vm.supply
    collector = vm.collector
    if isinstance(collector, ImmixCollector):
        for block in collector.blocks:
            for page in block.pages:
                pages.append((page, f"block {block.virtual_index}"))
        for obj in collector.los.objects():
            for page in obj.los_placement.pages:
                pages.append((page, f"los object {obj.oid}"))
    for span in supply._spans:
        for page in span.free:
            pages.append((page, f"span {span.index} free list"))
    for page in supply._parked:
        pages.append((page, "parked penalty"))
    return pages


def check_page_conservation(vm, violations: List[Violation], trigger: str) -> None:
    """Every supply page is owned exactly once; the directory mirrors it."""
    collector = vm.collector
    supply = vm.supply
    if not isinstance(collector, ImmixCollector):
        return
    universe = {page.index for span in supply._spans for page in span.pages}
    owners: Dict[int, List[str]] = {}
    for page, where in _vm_heap_pages(vm):
        if page.index >= 0:
            owners.setdefault(page.index, []).append(where)
    for index in sorted(universe | set(owners)):
        holders = owners.get(index, [])
        if index not in universe:
            violations.append(
                Violation(
                    invariant="page-conservation",
                    layer="runtime",
                    page=index,
                    message="runtime holds a page outside the supply's "
                    "span universe",
                    expected="a page from the mapped heap",
                    actual=f"held by {holders}",
                )
            )
        elif len(holders) != 1:
            violations.append(
                Violation(
                    invariant="page-conservation",
                    layer="runtime",
                    page=index,
                    message="heap page must have exactly one owner "
                    "(block, LOS, free span, or parked)",
                    expected="exactly one owner",
                    actual=f"owners {holders or ['none']}",
                )
            )

    # Borrowed (negative-index) pages: the lent set must be exactly the
    # negative pages reachable through blocks and LOS placements.
    lent = {page.index for page in supply._borrowed_held}
    reachable = {
        page.index
        for page, _ in _vm_heap_pages(vm)
        if page.index < 0 and page.borrowed
    }
    if lent != reachable:
        violations.append(
            Violation(
                invariant="borrowed-page-tracking",
                layer="runtime",
                message="the supply's lent-page ledger diverged from the "
                "borrowed pages actually placed in the heap",
                expected=f"ledger {sorted(lent)}",
                actual=f"reachable {sorted(reachable)}",
            )
        )

    # The page directory must map exactly the pages blocks and the LOS
    # hold, each entry pointing back at its true owner.
    expected_dir: Dict[int, Tuple] = {}
    for block in collector.blocks:
        for slot, page in enumerate(block.pages):
            expected_dir[page.index] = ("block", id(block), slot)
    for obj in collector.los.objects():
        for page in obj.los_placement.pages:
            expected_dir[page.index] = ("los", id(obj))
    actual_dir: Dict[int, Tuple] = {}
    for index, entry in collector.page_directory.items():
        if entry[0] == "block":
            actual_dir[index] = ("block", id(entry[1]), entry[2])
        else:
            actual_dir[index] = ("los", id(entry[1]))
    for index in sorted(set(expected_dir) | set(actual_dir)):
        if expected_dir.get(index) != actual_dir.get(index):
            violations.append(
                Violation(
                    invariant="page-directory-sync",
                    layer="runtime",
                    page=index,
                    message="page directory entry disagrees with the "
                    "page's actual owner (dynamic failures on this page "
                    "would be misrouted)",
                    expected=str(expected_dir.get(index)),
                    actual=str(actual_dir.get(index)),
                )
            )


def check_space_accounting(vm, violations: List[Violation], trigger: str) -> None:
    """Debt/parked/lent ledgers agree; byte accounting stays conserved."""
    supply = vm.supply
    debt = supply.accountant.debt
    parked = len(supply._parked)
    lent = len(supply._borrowed_held)
    if not (debt == parked == lent):
        violations.append(
            Violation(
                invariant="borrow-penalty-accounting",
                layer="runtime",
                message="debit-credit ledgers diverged: every borrowed "
                "page parks exactly one penalty page",
                expected="debt == parked == lent pages",
                actual=f"debt {debt}, parked {parked}, lent {lent}",
            )
        )
    collector = vm.collector
    if not isinstance(collector, ImmixCollector):
        return
    los_pages = sum(obj.los_placement.n_pages for obj in collector.los.objects())
    if los_pages != collector.los.pages_in_use:
        violations.append(
            Violation(
                invariant="los-page-accounting",
                layer="runtime",
                message="LOS pages_in_use diverged from the sum of its "
                "live placements",
                expected=f"{los_pages} pages across placements",
                actual=f"pages_in_use {collector.los.pages_in_use}",
            )
        )
    live_bytes = sum(obj.size for block in collector.blocks for obj in block.objects)
    live_bytes += sum(obj.size for obj in collector.los.objects())
    # Arraylet spines are accounted at their own size, but their placed
    # chunks each carry a header plus alignment padding the accounting
    # never sees — allow that bounded overhead (chunks are counted
    # cumulatively, so this is a sound one-sided allowance).
    arraylet_allowance = vm.stats.arraylet_chunks * (
        object_model.HEADER_BYTES + object_model.ALIGNMENT - 1
    )
    allowed = vm.stats.bytes_allocated + arraylet_allowance
    if live_bytes > allowed:
        violations.append(
            Violation(
                invariant="byte-accounting",
                layer="runtime",
                message="live placed bytes exceed cumulative allocation "
                "(an object was placed without being accounted)",
                expected=f"<= {allowed} bytes allocated",
                actual=f"{live_bytes} live bytes",
            )
        )


def check_time_breakdown(vm, violations: List[Violation], trigger: str) -> None:
    """Traced phase totals telescope to the cost model's total time.

    The tracer charges every simulated-clock delta to exactly one
    phase, so the per-phase totals must sum to
    ``cost_model.total_time(stats)`` — the same value
    ``RunResult.time_units`` reports. A gap means a cost path ran
    outside phase accounting (or was double-counted); no-ops when the
    VM is untraced.
    """
    tracer = getattr(vm, "tracer", None)
    if tracer is None:
        return
    total = vm.cost_model.total_time(vm.stats)
    breakdown = tracer.phase_breakdown()
    summed = sum(breakdown.values())
    # Bucket-accumulation rounding only; thousands of phase switches
    # stay within a few ulps, so 1e-9 relative is generous headroom.
    tolerance = 1e-9 * max(1.0, abs(total))
    if abs(summed - total) > tolerance:
        violations.append(
            Violation(
                invariant="time-breakdown",
                layer="runtime",
                message="per-phase time breakdown does not sum to the "
                "cost model's total simulated time",
                expected=f"sum == total_time {total!r}",
                actual=f"sum {summed!r} over phases "
                f"{sorted(breakdown)} (delta {summed - total!r})",
            )
        )


def check_kernel_caches(vm, violations: List[Violation], trigger: str) -> None:
    """Cached hot-path summaries agree with a reference recomputation.

    The kernels trust generation counters to invalidate the per-block
    free-run summary, the object extent index, and the OS failure
    table's decoded-offset cache. A mutation that bypasses the owning
    object's mutators would leave a cache stale; this checker
    recomputes each summary with naive per-line recounts and flags any
    divergence.
    """
    collector = vm.collector
    if isinstance(collector, ImmixCollector):
        for block in collector.blocks:
            summary = block.line_summary()
            reference_runs = line_table.free_runs_reference(block.line_states)
            reference_free = line_table.count_state(block.line_states, FREE)
            reference_largest = max(
                (length for _start, length in reference_runs), default=0
            )
            if (
                summary.runs != reference_runs
                or summary.free_lines != reference_free
                or summary.largest_run != reference_largest
            ):
                violations.append(
                    Violation(
                        invariant="kernel-cache-coherence",
                        layer="heap",
                        block=block.virtual_index,
                        message="cached free-run summary diverged from the "
                        "reference recomputation (a line-state mutation "
                        "bypassed the block's generation counter)",
                        expected=f"runs {reference_runs[:8]}, "
                        f"free {reference_free}, largest {reference_largest}",
                        actual=f"runs {summary.runs[:8]}, "
                        f"free {summary.free_lines}, "
                        f"largest {summary.largest_run}",
                    )
                )
            objs, starts = block.extent_index()
            expected_objs = sorted(
                (o for o in block.objects if o.offset is not None),
                key=lambda o: o.offset,
            )
            if [o.oid for o in objs] != [o.oid for o in expected_objs] or starts != [
                o.offset for o in expected_objs
            ]:
                violations.append(
                    Violation(
                        invariant="kernel-cache-coherence",
                        layer="heap",
                        block=block.virtual_index,
                        message="cached object extent index diverged from a "
                        "fresh offset sort of the block's objects",
                        expected=f"{len(expected_objs)} placed objects at "
                        f"{[o.offset for o in expected_objs][:8]}",
                        actual=f"{len(objs)} indexed objects at {starts[:8]}",
                    )
                )
    heap_table = getattr(collector, "table", None)
    if heap_table is not None:
        pairs = (
            ("free_line_count", heap_table.free_line_count(),
             heap_table.free_line_count_reference()),
            ("failed_line_count", heap_table.failed_line_count(),
             heap_table.failed_line_count_reference()),
            ("slots_with_free_lines", heap_table.slots_with_free_lines(),
             heap_table.slots_with_free_lines_reference()),
        )
        for name, fast, reference in pairs:
            if fast != reference:
                violations.append(
                    Violation(
                        invariant="kernel-cache-coherence",
                        layer="heap",
                        message=f"heap table's whole-heap {name} kernel "
                        "diverged from the per-slot reference scan",
                        expected=f"{reference}",
                        actual=f"{fast}",
                    )
                )
        for slot in heap_table.active_slots():
            guard = heap_table.lines[heap_table.base(slot) + heap_table.lines_per_block]
            if guard != UNMAPPED:
                violations.append(
                    Violation(
                        invariant="kernel-cache-coherence",
                        layer="heap",
                        message=f"slot {slot}'s guard byte was overwritten "
                        "(a segment write escaped its block)",
                        expected=f"0x{UNMAPPED:02X}",
                        actual=f"0x{guard:02X}",
                    )
                )
    supply = vm.supply
    if supply.free_real_pages != supply.recount_free_pages():
        violations.append(
            Violation(
                invariant="kernel-cache-coherence",
                layer="heap",
                message="page supply's incremental free-page count diverged "
                "from the per-span recount",
                expected=f"{supply.recount_free_pages()} free pages",
                actual=f"{supply.free_real_pages}",
            )
        )
    for span in supply._spans:
        n_perfect = sum(1 for page in span.free if page.is_perfect)
        if span.n_free_perfect != n_perfect:
            violations.append(
                Violation(
                    invariant="kernel-cache-coherence",
                    layer="heap",
                    message=f"span {span.index}'s incremental free-perfect "
                    "count diverged from a rescan of its free list",
                    expected=f"{n_perfect} perfect pages",
                    actual=f"{span.n_free_perfect}",
                )
            )
        claimable = span.owner == SPAN_FREE and span.fully_free
        flags = (
            claimable,
            claimable and n_perfect > 0,
            span.owner == SPAN_LOS and n_perfect > 0,
        )
        held = tuple(
            bool(flag_bytes[span.index])
            for flag_bytes in (
                supply._claimable, supply._claimable_perfect, supply._los_perfect
            )
        )
        if held != flags:
            violations.append(
                Violation(
                    invariant="kernel-cache-coherence",
                    layer="heap",
                    message=f"span {span.index}'s flag bytes (claimable, "
                    "claimable with a perfect page, LOS with a perfect page) "
                    "diverged from its owner and free list",
                    expected=f"{flags}",
                    actual=f"{held}",
                )
            )
    table = vm.os.failure_table
    count = 0
    for page_index in table.imperfect_pages():
        bitmap = table.bitmap(page_index)
        reference_offsets = {
            i for i in range(vm.geometry.lines_per_page) if bitmap >> i & 1
        }
        count += len(reference_offsets)
        if table.failed_offsets(page_index) != reference_offsets:
            violations.append(
                Violation(
                    invariant="kernel-cache-coherence",
                    layer="os",
                    page=page_index,
                    message="failure table's decoded offset cache diverged "
                    "from its bitmap",
                    expected=f"offsets {sorted(reference_offsets)}",
                    actual=f"offsets {sorted(table.failed_offsets(page_index))}",
                )
            )
    if table.failed_line_count() != count:
        violations.append(
            Violation(
                invariant="kernel-cache-coherence",
                layer="os",
                message="failure table's incremental failed-line count "
                "diverged from the popcount of its bitmaps",
                expected=f"{count} failed lines",
                actual=f"{table.failed_line_count()}",
            )
        )


#: The full checker suite, in layer order (hardware outward), ending
#: with the meta-checkers that validate the tracer's accounting and the
#: kernels' caches.
ALL_CHECKERS = (
    check_redirection_maps,
    check_failure_chain,
    check_os_pools,
    check_block_failure_seeding,
    check_block_line_marks,
    check_object_placement,
    check_page_conservation,
    check_space_accounting,
    check_time_breakdown,
    check_kernel_caches,
)


def run_all_checkers(vm, trigger: str = "manual") -> Tuple[List[Violation], int]:
    """Run every checker against ``vm``; returns (violations, n_run)."""
    violations: List[Violation] = []
    for checker in ALL_CHECKERS:
        checker(vm, violations, trigger)
    return violations, len(ALL_CHECKERS)


def audit_vm(vm, trigger: str = "manual"):
    """Convenience: one full audit pass, returning the report."""
    from .audit import AuditReport

    violations, checks_run = run_all_checkers(vm, trigger)
    return AuditReport(trigger=trigger, violations=violations, checks_run=checks_run)
