"""Address geometry shared by the PCM module, the OS, and the runtime.

The paper fixes three hardware granularities: 64 B PCM lines (the write
and failure granularity), 4 KB pages (the OS granularity), and clustering
regions of one or more pages (the granularity at which failure clustering
hardware remaps lines). On the software side, Immix introduces its own
logical line (64-256 B) and block (32 KB) sizes.

Every piece of address arithmetic in this repository goes through a
:class:`Geometry` so the relationships between these sizes are validated
exactly once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from ..errors import GeometryError
from ..units import (
    BLOCK_BYTES,
    IMMIX_LINE_BYTES,
    PAGE_BYTES,
    PCM_LINE_BYTES,
    format_size,
    is_power_of_two,
)


@dataclass(frozen=True)
class Geometry:
    """Validated hardware/software size relationships.

    Parameters
    ----------
    pcm_line:
        Hardware write/failure granularity in bytes (paper: 64 B).
    page:
        OS page size in bytes (paper: 4 KB).
    region_pages:
        Pages per failure-clustering region (paper evaluates 1 and 2).
    immix_line:
        Immix logical line size in bytes (paper evaluates 64/128/256 B).
    block:
        Immix block size in bytes (paper: 32 KB).
    """

    pcm_line: int = PCM_LINE_BYTES
    page: int = PAGE_BYTES
    region_pages: int = 2
    immix_line: int = IMMIX_LINE_BYTES
    block: int = BLOCK_BYTES

    def __post_init__(self) -> None:
        for name in ("pcm_line", "page", "immix_line", "block"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise GeometryError(f"{name} must be a power of two, got {value}")
        if self.region_pages < 1:
            raise GeometryError(f"region_pages must be >= 1, got {self.region_pages}")
        if self.page % self.pcm_line:
            raise GeometryError(
                f"page ({format_size(self.page)}) must be a multiple of the "
                f"PCM line ({format_size(self.pcm_line)})"
            )
        if self.immix_line % self.pcm_line:
            raise GeometryError(
                f"Immix line ({format_size(self.immix_line)}) must be a "
                f"multiple of the PCM line ({format_size(self.pcm_line)})"
            )
        if self.block % self.immix_line:
            raise GeometryError("block must be a multiple of the Immix line")
        if self.block % self.page:
            raise GeometryError("block must be a multiple of the page size")
        if self.page % self.immix_line:
            raise GeometryError("page must be a multiple of the Immix line")

    # ------------------------------------------------------------------
    # Derived counts
    # ------------------------------------------------------------------
    @property
    def region(self) -> int:
        """Clustering region size in bytes."""
        return self.region_pages * self.page

    @property
    def lines_per_page(self) -> int:
        """PCM lines per OS page (paper: 64)."""
        return self.page // self.pcm_line

    @property
    def lines_per_region(self) -> int:
        """PCM lines per clustering region (paper default: 128)."""
        return self.region // self.pcm_line

    @property
    def immix_lines_per_block(self) -> int:
        return self.block // self.immix_line

    @property
    def immix_lines_per_page(self) -> int:
        return self.page // self.immix_line

    @property
    def pcm_lines_per_immix_line(self) -> int:
        return self.immix_line // self.pcm_line

    @property
    def pages_per_block(self) -> int:
        return self.block // self.page

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------
    def line_index(self, address: int) -> int:
        """PCM line number containing ``address``."""
        return address // self.pcm_line

    def line_address(self, line_index: int) -> int:
        """Start address of PCM line ``line_index``."""
        return line_index * self.pcm_line

    def page_index(self, address: int) -> int:
        return address // self.page

    def page_address(self, page_index: int) -> int:
        return page_index * self.page

    def region_index(self, address: int) -> int:
        return address // self.region

    def region_address(self, region_index: int) -> int:
        return region_index * self.region

    def line_offset_in_region(self, address: int) -> int:
        """Index of the PCM line within its clustering region."""
        return (address % self.region) // self.pcm_line

    def line_offset_in_page(self, address: int) -> int:
        return (address % self.page) // self.pcm_line

    def page_lines(self, page_index: int) -> range:
        """Global PCM line indices covered by page ``page_index``."""
        first = page_index * self.lines_per_page
        return range(first, first + self.lines_per_page)

    def region_lines(self, region_index: int) -> range:
        """Global PCM line indices covered by region ``region_index``."""
        first = region_index * self.lines_per_region
        return range(first, first + self.lines_per_region)

    def pages_in_region(self, region_index: int) -> range:
        first = region_index * self.region_pages
        return range(first, first + self.region_pages)

    # ------------------------------------------------------------------
    # Metadata sizing (paper section 3.1.2)
    # ------------------------------------------------------------------
    def redirection_map_bits(self) -> int:
        """Bits needed for a region's redirection map plus boundary pointer.

        The paper's example: a 2-page region of 128 lines needs 126 7-bit
        redirection entries plus one 7-bit boundary pointer = 889 bits.
        One region line holds the map itself (self-mapped), hence the
        ``lines_per_region - index_bits_worth`` style count below follows
        the paper's arithmetic: ``(n - 2) + 1`` entries of ``log2(n)``
        bits for an ``n``-line region with the map occupying lines that
        need no entries of their own.
        """
        n = self.lines_per_region
        entry_bits = max(1, (n - 1).bit_length())
        map_lines = self.redirection_map_lines()
        entries = n - map_lines
        return (entries + 1) * entry_bits

    def redirection_map_lines(self) -> int:
        """PCM lines consumed by the redirection map in a region.

        Computed as a fixed point: the map does not need entries for the
        lines it occupies itself. For the paper's default geometry this
        is 2 lines (889 bits > 512 bits of one 64 B line).
        """
        n = self.lines_per_region
        entry_bits = max(1, (n - 1).bit_length())
        line_bits = self.pcm_line * 8
        map_lines = 1
        while ((n - map_lines) + 1) * entry_bits > map_lines * line_bits:
            map_lines += 1
        return map_lines

    def describe(self) -> str:
        """One-line human-readable summary of the geometry."""
        return (
            f"pcm_line={format_size(self.pcm_line)} page={format_size(self.page)} "
            f"region={self.region_pages}p immix_line={format_size(self.immix_line)} "
            f"block={format_size(self.block)}"
        )


#: The geometry used throughout the paper's evaluation.
PAPER_DEFAULT = Geometry()


def group_rows(mask: np.ndarray, size: int) -> np.ndarray:
    """A per-line mask as rows of ``size`` lines, the last zero-padded."""
    rows = np.zeros((-(-len(mask) // size), size), dtype=mask.dtype)
    rows.reshape(-1)[: len(mask)] = mask
    return rows


def as_line_indices(lines: Iterable[int]) -> np.ndarray:
    """Line indices as an int64 array (no copy for one already)."""
    if isinstance(lines, np.ndarray):
        return lines.astype(np.int64, copy=False)
    return np.fromiter(lines, dtype=np.int64)


def popcount(bits: int) -> int:
    """Set bits of a non-negative int (``int.bit_count`` needs 3.10)."""
    return bin(bits).count("1")


def set_bits(bits: int) -> List[int]:
    """Positions of the set bits of a non-negative int, ascending.

    ``bits & -bits`` isolates the lowest set bit, so decoding costs one
    step per set bit instead of one per bit position.
    """
    positions = []
    while bits:
        lowest = bits & -bits
        positions.append(lowest.bit_length() - 1)
        bits ^= lowest
    return positions
