"""The failure-aware OS memory manager (paper sections 3.2.1-3.2.2).

Responsibilities:

* own the page pools and the DRAM-resident failure table;
* expose the system calls the paper adds — an ``mmap`` variant that
  returns imperfect pages and a ``map-failures`` call that reports their
  failure maps;
* service failure interrupts from the PCM module: read the failure
  buffer, find the owning mapping (reverse address translation), update
  the failure table and pools, and either up-call a registered
  failure-aware runtime or transparently relocate the page for
  failure-unaware processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ProtocolError
from ..hardware.failure_buffer import InterruptKind
from ..hardware.geometry import Geometry
from ..hardware.pcm import PcmModule
from .failure_table import FailureTable
from .page import PhysicalPage
from .pools import PagePools


@dataclass(frozen=True)
class FailureEvent:
    """One dynamic line failure, as delivered to a runtime handler."""

    page_index: int
    line_offset: int
    address: int
    data: object


FailureHandler = Callable[[Sequence[FailureEvent]], None]


class OsMemoryManager:
    """OS view of one PCM module plus a DRAM reserve."""

    def __init__(
        self,
        pcm: PcmModule,
        dram_pages: int = 64,
        geometry: Optional[Geometry] = None,
        pool_policy=None,
    ) -> None:
        self.geometry = geometry or pcm.geometry
        self.pcm = pcm
        self.n_pcm_pages = pcm.size_bytes // self.geometry.page
        self.pool_policy = pool_policy
        self.pools = PagePools(
            self.n_pcm_pages,
            dram_pages,
            supply_order=(
                pool_policy.supply_order if pool_policy is not None
                else "imperfect-first"
            ),
        )
        self.failure_table = FailureTable(self.n_pcm_pages, self.geometry)
        self._handler: Optional[FailureHandler] = None
        self._owners: Dict[int, str] = {}
        self.relocated_pages = 0
        self.upcalls = 0
        #: Optional observability hook; see :mod:`repro.obs.trace`.
        self.tracer = None
        # Wire the module's interrupts to this manager and absorb any
        # failures the module already knows about (an aged module).
        pcm.connect_interrupt(self._on_interrupt)
        self._absorb_static_failures()

    # ------------------------------------------------------------------
    def _absorb_static_failures(self) -> None:
        """Load the module's known failures in one batch (section 3.2.1).

        Runs at construction, before anything is mapped or any tracer is
        attached, so the batch needs none of the per-line path's
        bookkeeping: the failure table loads every page's bitmap at
        once, each page descriptor takes its page's bitmap, and the
        degraded pages leave the perfect pool in one rebuild, in page
        order.
        """
        batch = self.failure_table.load_lines(self.pcm.failed_logical_indices())
        pages = self.pools.pages
        for page_index, bits in batch.items():
            pages[page_index].failed_bits = bits
        self.pools.note_pages_degraded(list(batch))
        self.pcm.take_pending_failures()

    def _record_line_failure(self, global_line: int) -> FailureEvent:
        per_page = self.geometry.lines_per_page
        page_index, offset = divmod(global_line, per_page)
        first_failure = self.failure_table.record_failure(page_index, offset)
        page = self.pools.page(page_index)
        page.record_failure(offset)
        if first_failure:
            self.pools.note_page_degraded(page_index)
            tr = self.tracer
            if tr is not None:
                tr.instant(
                    "os.page_degraded",
                    cat="os",
                    args={"page": page_index, "line_offset": offset},
                )
        address = self.geometry.line_address(global_line)
        return FailureEvent(page_index, offset, address, None)

    # ------------------------------------------------------------------
    # System calls (section 3.2.1)
    # ------------------------------------------------------------------
    def mmap(self, n_pages: int, owner: str = "process") -> List[PhysicalPage]:
        """Failure-unaware mapping: perfect pages only."""
        pages = [self.pools.take_perfect(allow_dram=True) for _ in range(n_pages)]
        for page in pages:
            self._owners[page.index] = owner
        self._trace_grant("os.mmap", n_pages, owner)
        return pages

    def mmap_imperfect(self, n_pages: int, owner: str = "runtime") -> List[PhysicalPage]:
        """Failure-aware mapping: any PCM pages, holes included.

        Returns exactly ``n_pages`` pages; the caller must consult
        :meth:`map_failures` to learn how much of the memory is usable
        and request more if it needs more working space.
        """
        if self._handler is None:
            raise ProtocolError(
                "a failure-aware runtime must register a failure handler "
                "before mapping imperfect memory (paper section 3.2.2)"
            )
        pages = [self.pools.take_any_pcm() for _ in range(n_pages)]
        for page in pages:
            self._owners[page.index] = owner
        self._trace_grant("os.mmap_imperfect", n_pages, owner)
        return pages

    def _trace_grant(self, name: str, n_pages: int, owner: str) -> None:
        tr = self.tracer
        if tr is None:
            return
        tr.instant(name, cat="os", args={"pages": n_pages, "owner": owner})

    def map_failures(self, pages: Sequence[PhysicalPage]) -> Dict[int, int]:
        """Failure map for a mapped region: page index -> failure bitmap
        (bit *i* set = page-relative PCM line *i* failed)."""
        tr = self.tracer
        if tr is not None:
            tr.instant("os.map_failures", cat="os", args={"pages": len(pages)})
        indices = [page.index for page in pages]
        return dict(zip(indices, self.failure_table.bitmaps(indices)))

    def munmap(self, pages: Sequence[PhysicalPage]) -> None:
        for page in pages:
            self._owners.pop(page.index, None)
            self.pools.release(page.index)

    def register_failure_handler(self, handler: FailureHandler) -> None:
        self._handler = handler

    # ------------------------------------------------------------------
    # Dynamic failures (section 3.2.2)
    # ------------------------------------------------------------------
    def _on_interrupt(self, kind: InterruptKind) -> None:
        # In a real system the interrupt schedules the handler; in the
        # simulator we service synchronously, which also keeps the
        # failure buffer drained (no deadlock path).
        if kind is InterruptKind.WRITE_FAILURE:
            self.service_failures()

    def service_failures(self) -> List[FailureEvent]:
        """Drain pending failures: update tables, notify or relocate."""
        tr = self.tracer
        if tr is None:
            return self._service_failures()
        with tr.span("os.service_failures", cat="os"):
            events = self._service_failures()
        if events:
            tr.instant(
                "os.failures_serviced", cat="os", args={"events": len(events)}
            )
        return events

    def _service_failures(self) -> List[FailureEvent]:
        self._drain_rewrites_to_known_failures()
        events: List[FailureEvent] = []
        received_addresses: List[int] = []
        for reported, original in self.pcm.take_pending_failures():
            event = self._record_line_failure(reported)
            original_address = self.geometry.line_address(original)
            # The parked write lives under the *original* address (with
            # clustering the reported boundary line never saw the write).
            # Remember exactly which entries this drain received, so the
            # acknowledgement below releases those and only those.
            if original_address in self.pcm.failure_buffer:
                received_addresses.append(original_address)
            data = self.pcm.failure_buffer.forward(original_address)
            events.append(
                FailureEvent(event.page_index, event.line_offset, event.address, data)
            )
        if not events:
            return []
        runtime_events = [
            e for e in events if self._owners.get(e.page_index) == "runtime"
        ]
        other_events = [e for e in events if e not in runtime_events]
        for event in other_events:
            self._relocate_page(event)
        if runtime_events:
            if self._handler is None:
                raise ProtocolError("failure on runtime page with no handler")
            self.upcalls += 1
            tr = self.tracer
            if tr is not None:
                with tr.span(
                    "os.upcall",
                    cat="os",
                    phase="os.upcall",
                    args={"events": len(runtime_events)},
                ):
                    self._handler(runtime_events)
            else:
                self._handler(runtime_events)
        # The runtime has recovered the data; the OS acknowledges the
        # entries it received so the hardware can reuse the slots.
        # Acknowledgement is strict: releasing an address the buffer
        # never parked raises ProtocolError (the errors.py contract)
        # rather than silently masking a hardware/OS divergence.
        for address in received_addresses:
            self.pcm.failure_buffer.acknowledge(address)
        return events

    def _drain_rewrites_to_known_failures(self) -> None:
        """Clear buffer entries for writes that hit already-known failures.

        Between a line failing and the runtime evacuating its objects,
        the mutator may store to the line again; the module parks each
        store in the failure buffer. The OS recognizes the line as
        already handled (it is in the failure table) and releases the
        entry so the small buffer cannot silt up (section 3.1.1's
        deadlock-avoidance responsibility).
        """
        per_page = self.geometry.lines_per_page
        for entry in self.pcm.failure_buffer.pending():
            line = self.geometry.line_index(entry.address)
            page_index, offset = divmod(line, per_page)
            if page_index < self.n_pcm_pages and (
                self.failure_table.bitmap(page_index) >> offset & 1
            ):
                self.pcm.failure_buffer.acknowledge(entry.address)

    def _relocate_page(self, event: FailureEvent) -> None:
        """Failure-unaware handling: copy the whole page to a perfect one.

        This is the DRAM-era behaviour the paper improves on — it burns
        one perfect page per failed line when the page has no
        failure-aware owner.
        """
        self.pools.take_perfect(allow_dram=True)
        self.relocated_pages += 1
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "os.relocate_page", cat="os", args={"page": event.page_index}
            )

    # ------------------------------------------------------------------
    def imperfect_fraction(self) -> float:
        """Fraction of PCM pages with at least one failed line."""
        return len(self.failure_table.imperfect_pages()) / max(1, self.n_pcm_pages)
