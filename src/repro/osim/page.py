"""Physical page descriptors used by the OS layer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import FrozenSet


class PageKind(Enum):
    """Which physical medium backs the page."""

    DRAM = auto()
    PCM = auto()


@dataclass
class PhysicalPage:
    """One physical page and its failure state.

    ``failed_offsets`` holds page-relative PCM line offsets (0..63 for
    the paper's 4 KB/64 B geometry). It is replaced, never mutated, on
    each failure, so the OS can hand a page the failure table's cached
    set at boot. DRAM pages never fail.
    """

    index: int
    kind: PageKind = PageKind.PCM
    failed_offsets: FrozenSet[int] = frozenset()

    @property
    def is_perfect(self) -> bool:
        return not self.failed_offsets

    @property
    def failed_count(self) -> int:
        return len(self.failed_offsets)

    def record_failure(self, offset: int) -> None:
        if self.kind is PageKind.DRAM:
            raise ValueError("DRAM pages do not fail in this model")
        self.failed_offsets = self.failed_offsets | {offset}

    def compatible_destination_for(self, source: "PhysicalPage") -> bool:
        """Can data written around ``source``'s holes land on this page?

        True when this page's holes are a subset of the source's holes
        (paper section 3.2.3, option 2's cheap special case).
        """
        return self.failed_offsets <= source.failed_offsets

    def __repr__(self) -> str:
        state = "perfect" if self.is_perfect else f"{self.failed_count} failed lines"
        return f"PhysicalPage({self.index}, {self.kind.name}, {state})"
