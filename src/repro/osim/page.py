"""Physical page descriptors used by the OS layer."""

from __future__ import annotations

from enum import Enum, auto

from ..hardware.geometry import popcount


class PageKind(Enum):
    """Which physical medium backs the page."""

    DRAM = auto()
    PCM = auto()


class PhysicalPage:
    """One physical page and its failure state.

    ``failed_bits`` is the page's failure bitmap, the failure table's
    own record (paper section 3.2.1): bit *i* set means page-relative
    PCM line *i* failed (0..63 for the paper's 4 KB/64 B geometry).
    DRAM pages never fail.
    """

    __slots__ = ("index", "kind", "failed_bits")

    def __init__(
        self, index: int, kind: PageKind = PageKind.PCM, failed_bits: int = 0
    ) -> None:
        self.index = index
        self.kind = kind
        self.failed_bits = failed_bits

    @property
    def is_perfect(self) -> bool:
        return not self.failed_bits

    @property
    def failed_count(self) -> int:
        return popcount(self.failed_bits)

    def record_failure(self, offset: int) -> None:
        if self.kind is PageKind.DRAM:
            raise ValueError("DRAM pages do not fail in this model")
        self.failed_bits |= 1 << offset

    def compatible_destination_for(self, source: "PhysicalPage") -> bool:
        """Can data written around ``source``'s holes land on this page?

        True when this page's holes are a subset of the source's holes
        (paper section 3.2.3, option 2's cheap special case).
        """
        return not self.failed_bits & ~source.failed_bits

    def __repr__(self) -> str:
        state = "perfect" if self.is_perfect else f"{self.failed_count} failed lines"
        return f"PhysicalPage({self.index}, {self.kind.name}, {state})"
