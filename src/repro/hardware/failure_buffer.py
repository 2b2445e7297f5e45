"""The hardware failure buffer (paper section 3.1.1).

When a PCM write fails, the memory module copies the written data and
its physical address into a small SRAM/DRAM FIFO and interrupts the
processor. Reads check the buffer in parallel with the array and return
the buffered data when present, so no data is lost while the OS and
runtime react. When the buffer is nearly full (enough slots are reserved
to drain outstanding writes) the module raises a second interrupt kind
and refuses further writes until the OS drains at least one entry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, List, Optional

from ..errors import FailureBufferOverflowError, ProtocolError


class InterruptKind(Enum):
    """The two interrupt types the failure buffer can raise."""

    #: A write failed; its data is parked in the buffer.
    WRITE_FAILURE = auto()
    #: The buffer is nearly full; writes are stalled until it drains.
    BUFFER_NEARLY_FULL = auto()


@dataclass(frozen=True)
class FailureEntry:
    """One parked failed write."""

    address: int
    data: object
    #: True for the placeholder entry the module inserts where it plans
    #: to install a redirection map (section 3.1.2, "fake failure").
    synthetic: bool = False


def _silent_interrupt(kind: "InterruptKind") -> None:
    """Default interrupt sink for buffers not wired to a processor."""


class FailureBuffer:
    """FIFO of failed writes with same-address coalescing.

    Parameters
    ----------
    capacity:
        Total entries. The paper argues this can be as small as a
        processor's load/store queue (tens of entries).
    reserve:
        Slots kept free for draining in-flight writes; when occupancy
        reaches ``capacity - reserve`` the buffer raises
        :attr:`InterruptKind.BUFFER_NEARLY_FULL` and stalls new writes.
    interrupt:
        Callback invoked with an :class:`InterruptKind` whenever the
        hardware would interrupt the processor; :meth:`connect` rewires
        it.
    """

    def __init__(
        self,
        capacity: int = 32,
        reserve: int = 4,
        interrupt: Optional[Callable[[InterruptKind], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= reserve < capacity:
            raise ValueError("reserve must satisfy 0 <= reserve < capacity")
        self.capacity = capacity
        self.reserve = reserve
        self._interrupt = interrupt or _silent_interrupt
        self._entries: "OrderedDict[int, FailureEntry]" = OrderedDict()
        self._stalled = False
        # Statistics for the evaluation harness.
        self.total_inserted = 0
        self.high_water_mark = 0
        #: Optional observability hook; see :mod:`repro.obs.trace`.
        self.tracer = None

    def connect(self, interrupt: Optional[Callable[[InterruptKind], None]]) -> None:
        """Deliver interrupts to ``interrupt`` from now on; None silences
        them."""
        self._interrupt = interrupt or _silent_interrupt

    # ------------------------------------------------------------------
    # Hardware-side operations
    # ------------------------------------------------------------------
    def insert(self, address: int, data: object, synthetic: bool = False) -> None:
        """Park a failed write. Raises if the module is stalled and full.

        An earlier entry for the same address is invalidated (the buffer
        forwards only the latest value), preserving FIFO order of first
        failure otherwise.
        """
        if self._stalled and len(self._entries) >= self.capacity:
            raise FailureBufferOverflowError(
                f"failure buffer overflow at address {address:#x}"
            )
        if address in self._entries:
            del self._entries[address]
        self._entries[address] = FailureEntry(address, data, synthetic)
        self.total_inserted += 1
        self.high_water_mark = max(self.high_water_mark, len(self._entries))
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "fbuf.park",
                cat="hardware",
                args={
                    "address": address,
                    "synthetic": synthetic,
                    "occupancy": len(self._entries),
                },
            )
        self._interrupt(InterruptKind.WRITE_FAILURE)
        if len(self._entries) >= self.capacity - self.reserve:
            self._stalled = True
            if tr is not None:
                tr.instant(
                    "fbuf.stall",
                    cat="hardware",
                    args={"occupancy": len(self._entries)},
                )
            self._interrupt(InterruptKind.BUFFER_NEARLY_FULL)

    def forward(self, address: int) -> Optional[object]:
        """Return buffered data for ``address`` if present (read path).

        Performed in parallel with the array access in hardware, so it
        adds no read latency (section 3.1.1); we only model the value.
        """
        entry = self._entries.get(address)
        return entry.data if entry else None

    @property
    def accepting_writes(self) -> bool:
        """False while the nearly-full stall is in effect."""
        return not self._stalled

    # ------------------------------------------------------------------
    # OS-side operations
    # ------------------------------------------------------------------
    def pending(self) -> List[FailureEntry]:
        """Entries in FIFO order, oldest first (the OS reads these)."""
        return list(self._entries.values())

    def clear(self, address: int) -> bool:
        """Invalidate the entry for ``address`` once the OS handled it."""
        removed = self._entries.pop(address, None) is not None
        if removed and len(self._entries) < self.capacity - self.reserve:
            self._stalled = False
        return removed

    def acknowledge(self, address: int) -> FailureEntry:
        """Release the entry for ``address``; the strict form of :meth:`clear`.

        The OS acknowledges a parked failure once its data is recovered.
        Acknowledging a failure the buffer never received (or one already
        released) is a cooperation-protocol violation — it means the OS's
        view of outstanding failures has diverged from the hardware's —
        and raises the :class:`~repro.errors.ProtocolError` documented in
        :mod:`repro.errors` instead of silently succeeding.
        """
        entry = self._entries.get(address)
        if entry is None:
            raise ProtocolError(
                f"acknowledging a failure the buffer never received "
                f"(no entry at address {address:#x})"
            )
        self.clear(address)
        tr = self.tracer
        if tr is not None:
            tr.instant("fbuf.ack", cat="hardware", args={"address": address})
        return entry

    def drain(self) -> List[FailureEntry]:
        """Remove and return everything (OS bulk handling)."""
        entries = list(self._entries.values())
        self._entries.clear()
        self._stalled = False
        return entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: int) -> bool:
        return address in self._entries
