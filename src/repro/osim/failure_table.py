"""The OS failure table (paper section 3.2.1).

The OS keeps one 64-bit bitmap per PCM page (for 4 KB pages of 64 B
lines) in a DRAM-resident table — about 1.6 % of PCM capacity
uncompressed. On clean shutdown the table is persisted; after an
abnormal shutdown it can be rebuilt by scanning the memory module.

The bitmap is the one per-page failure record from this table to the
runtime's line marks: ``map-failures`` reports bitmaps, page
descriptors hold them, and the VM expands them into Immix line marks.
Queries are bit-twiddled rather than looped: the module-wide
failed-line count is maintained incrementally on every
``record_failure``, run counting for the compression estimate uses a
transition-popcount identity instead of walking all 64 bit positions,
and the decoded offset set of a page (a derived read for swap, the
heap auditor and tests) is memoized until that page's bitmap changes.

Batches of failed lines — an aged module's static failures at boot,
or the module scan of a post-crash rebuild — load through
:meth:`FailureTable.load_lines`, which groups them by page in numpy
and writes each page's bitmap and the count once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence

import numpy as np

from ..hardware.geometry import Geometry, as_line_indices, popcount, set_bits


class FailureTable:
    """Per-page failure bitmaps for a PCM module of ``n_pages`` pages."""

    def __init__(self, n_pages: int, geometry: Geometry) -> None:
        if n_pages < 0:
            raise ValueError("n_pages must be >= 0")
        self.n_pages = n_pages
        self.geometry = geometry
        self._bitmaps: Dict[int, int] = {}
        self._offsets_cache: Dict[int, FrozenSet[int]] = {}
        self._failed_count = 0
        self._imperfect_cache: List[int] = []
        self._imperfect_cache_valid = True

    # ------------------------------------------------------------------
    def record_failure(self, page_index: int, line_offset: int) -> bool:
        """Mark a line failed; returns True if the page was perfect before."""
        self._check(page_index, line_offset)
        old = self._bitmaps.get(page_index, 0)
        new = old | (1 << line_offset)
        if new != old:
            self._bitmaps[page_index] = new
            self._offsets_cache.pop(page_index, None)
            self._failed_count += 1
            if old == 0:
                self._imperfect_cache_valid = False
        return old == 0

    def record_global_line(self, global_line: int) -> bool:
        """Record a failure given a module-wide line index."""
        per_page = self.geometry.lines_per_page
        return self.record_failure(global_line // per_page, global_line % per_page)

    def load_lines(self, failed_lines: Iterable[int]) -> Dict[int, int]:
        """Load a batch of module-wide failed lines into an empty table.

        The boot-time and post-crash loader: the same final state as
        :meth:`record_global_line` per line, but the batch is validated
        before anything changes and each page is written once. The
        lines (an int index array is taken as is) are sorted and split
        into per-page groups in numpy, and each group's bitmap is packed
        with ``np.packbits`` (any ``lines_per_page``, not only 64). The
        bitmaps are the only per-page record: no offset set is built,
        and :meth:`failed_offsets` decodes a page only when asked, so
        a machine's end-of-cell collector pass finds no per-page set
        from boot, only the page descriptors that hold the bitmaps.

        Returns the bitmap of every imperfect page, in page order.
        """
        if self._bitmaps:
            raise ValueError("load_lines needs an empty failure table")
        lines = np.sort(as_line_indices(failed_lines))
        if not lines.size:
            return {}
        per_page = self.geometry.lines_per_page
        pages, offsets = np.divmod(lines, per_page)
        del lines
        self._check(int(pages[0]), 0)
        self._check(int(pages[-1]), 0)
        starts = np.flatnonzero(np.diff(pages)) + 1
        group = np.zeros(pages.size, dtype=np.intp)
        group[starts] = 1
        np.cumsum(group, out=group)
        bits = np.zeros((len(starts) + 1, per_page), dtype=np.bool_)
        bits[group, offsets] = True
        raw = np.packbits(bits, axis=1, bitorder="little").tobytes()
        width = len(raw) // len(bits)
        page_list = pages[np.concatenate(([0], starts))].tolist()
        bitmaps = dict(zip(page_list, [
            int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)
        ]))
        self._bitmaps = bitmaps
        self._offsets_cache.clear()  # it may hold decodes of the empty table
        # Duplicate lines set one bit, so the count is of distinct lines.
        self._failed_count = int(np.count_nonzero(bits))
        self._imperfect_cache = page_list
        self._imperfect_cache_valid = True
        return dict(bitmaps)

    def bitmap(self, page_index: int) -> int:
        self._check(page_index, 0)
        return self._bitmaps.get(page_index, 0)

    def bitmaps(self, page_indices: Sequence[int]) -> List[int]:
        """The bitmaps of many pages, validated by their lowest and
        highest index (one ``map-failures`` call)."""
        if page_indices:
            self._check(min(page_indices), 0)
            self._check(max(page_indices), 0)
        get = self._bitmaps.get
        return [get(page, 0) for page in page_indices]

    def failed_offsets(self, page_index: int) -> FrozenSet[int]:
        """Decoded failed-line offsets of a page (memoized per bitmap).

        A derived read for swap, the heap auditor and tests; the
        runtime reads bitmaps. The frozenset is cached until the page's
        bitmap changes. Only validated pages are ever cached, so a hit
        skips the bounds check. Callers only read the result.
        """
        cached = self._offsets_cache.get(page_index)
        if cached is None:
            cached = frozenset(set_bits(self.bitmap(page_index)))
            self._offsets_cache[page_index] = cached
        return cached

    def is_perfect(self, page_index: int) -> bool:
        return self.bitmap(page_index) == 0

    def imperfect_pages(self) -> List[int]:
        """Sorted imperfect page indices (cached until a page degrades).

        Pages never un-fail, so the sorted list only changes when a
        perfect page records its first failure; it is resorted then, not
        on every query. Callers get a copy — mutating the result cannot
        poison the cache.
        """
        if not self._imperfect_cache_valid:
            self._imperfect_cache = sorted(
                page for page, bits in self._bitmaps.items() if bits
            )
            self._imperfect_cache_valid = True
        return list(self._imperfect_cache)

    def failed_line_count(self) -> int:
        return self._failed_count

    # ------------------------------------------------------------------
    # Persistence / rebuild (section 3.2.1)
    # ------------------------------------------------------------------
    def save(self) -> Dict[int, int]:
        """Serializable snapshot for persistent storage at shutdown."""
        return {page: bits for page, bits in self._bitmaps.items() if bits}

    @classmethod
    def restore(
        cls, snapshot: Dict[int, int], n_pages: int, geometry: Geometry
    ) -> "FailureTable":
        table = cls(n_pages, geometry)
        for page, bits in snapshot.items():
            table._check(page, 0)
            table._bitmaps[page] = bits
            table._failed_count += popcount(bits)
        table._imperfect_cache_valid = False
        return table

    @classmethod
    def rebuild_from_lines(
        cls, failed_lines: Iterable[int], n_pages: int, geometry: Geometry
    ) -> "FailureTable":
        """Eager rebuild by scanning the module (post-crash recovery)."""
        table = cls(n_pages, geometry)
        table.load_lines(failed_lines)
        return table

    # ------------------------------------------------------------------
    def storage_overhead_bytes(self) -> int:
        """DRAM bytes for the uncompressed table (one bitmap per page)."""
        return self.n_pages * self.geometry.lines_per_page // 8

    def compressed_size_bytes(self) -> int:
        """Run-length-encoded table size (paper: "run-length encoding
        or other simple encoding techniques may provide high compression
        rates ... especially when the system is new").

        Encoding: a sorted stream of (page delta, bitmap payload) where
        perfect pages are skipped entirely; each imperfect page costs a
        2-byte page delta plus an RLE bitmap of its 64 line bits (one
        byte per run, up to 8 bytes, whichever is smaller than raw).

        The run count of the bit sequence b0..b(L-1) is one
        plus its number of adjacent transitions, and each transition is
        a set bit of ``bitmap ^ (bitmap >> 1)`` below position L-1 — so
        a popcount replaces the per-bit scan.
        """
        per_page = self.geometry.lines_per_page
        transition_mask = (1 << (per_page - 1)) - 1
        total = 0
        for page in self.imperfect_pages():
            bitmap = self._bitmaps[page]
            runs = 1 + popcount((bitmap ^ (bitmap >> 1)) & transition_mask)
            total += 2 + min(runs, per_page // 8)
        return total

    def compression_ratio(self) -> float:
        """Uncompressed / compressed size; large when the system is new."""
        compressed = self.compressed_size_bytes()
        if compressed == 0:
            return float("inf")
        return self.storage_overhead_bytes() / compressed

    def storage_overhead_fraction(self) -> float:
        """Table size relative to the PCM it describes (paper: ~1.6 %)."""
        pcm_bytes = self.n_pages * self.geometry.page
        if pcm_bytes == 0:
            return 0.0
        return self.storage_overhead_bytes() / pcm_bytes

    def _check(self, page_index: int, line_offset: int) -> None:
        if not 0 <= page_index < self.n_pages:
            raise IndexError(f"page {page_index} outside table of {self.n_pages}")
        if not 0 <= line_offset < self.geometry.lines_per_page:
            raise IndexError(f"line offset {line_offset} outside page")
