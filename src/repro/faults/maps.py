"""Failure maps: one bit per 64 B PCM line (paper section 5).

The failure map is the lingua franca of the whole design: the hardware
produces it, the OS stores it (a 64-bit bitmap per 4 KB page), and the
runtime folds it into the collector's line metadata. We represent it as
the paper does, densely: a numpy bool mask with one entry per line.
Generation, hardware clustering, coarsening and the wear policies'
remaps are whole-array operations on that mask, and the injector hands
its index array straight to the PCM module and the OS failure table.
An empty map holds no mask at all.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Set

import numpy as np

from ..errors import AddressError
from ..hardware.geometry import Geometry, as_line_indices, group_rows


class FailureMap:
    """Failure state for ``n_lines`` PCM lines starting at line 0.

    Immutable: transforms return new maps, and the mask is read-only.
    Line indices are module-relative (line 0 is the first line of the
    mapped span).
    """

    __slots__ = ("n_lines", "_mask", "_count")

    def __init__(self, n_lines: int, failed_lines: Iterable[int] = ()) -> None:
        if n_lines < 0:
            raise ValueError("n_lines must be >= 0")
        lines = as_line_indices(failed_lines)
        mask = None
        if lines.size:
            # One min/max pass validates the whole batch and names a
            # deterministic offender: the lowest line below zero, else
            # the highest line past the end.
            lowest, highest = int(lines.min()), int(lines.max())
            if lowest < 0 or highest >= n_lines:
                line = lowest if lowest < 0 else highest
                raise AddressError(f"failed line {line} outside map of {n_lines} lines")
            mask = np.zeros(n_lines, dtype=np.bool_)
            mask[lines] = True
        self._set(n_lines, mask)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "FailureMap":
        """A map over ``len(mask)`` lines; takes ownership of ``mask``."""
        fmap = cls.__new__(cls)
        fmap._set(len(mask), mask.astype(np.bool_, copy=False))
        return fmap

    def _set(self, n_lines: int, mask: Optional[np.ndarray]) -> None:
        self.n_lines = n_lines
        count = 0 if mask is None else int(np.count_nonzero(mask))
        if count:
            mask.setflags(write=False)
        else:
            mask = None
        self._mask = mask
        self._count = count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        """The per-line bool mask (read-only; a fresh zero mask if empty)."""
        if self._mask is None:
            return np.zeros(self.n_lines, dtype=np.bool_)
        return self._mask

    def failed_indices(self) -> np.ndarray:
        """Failed line indices, ascending, as an int64 array."""
        if self._mask is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self._mask)

    def is_failed(self, line: int) -> bool:
        mask = self._mask
        return mask is not None and 0 <= line < self.n_lines and bool(mask[line])

    @property
    def failed_lines(self) -> FrozenSet[int]:
        """A set view of the failed lines, built on each call."""
        return frozenset(self.failed_indices().tolist())

    @property
    def failed_count(self) -> int:
        return self._count

    @property
    def failure_rate(self) -> float:
        """Fraction of lines failed."""
        if self.n_lines == 0:
            return 0.0
        return self._count / self.n_lines

    def _window(self, first_line: int, n: int) -> np.ndarray:
        lo = max(first_line, 0)
        hi = min(first_line + n, self.n_lines)
        if self._mask is None or hi <= lo:
            return np.zeros(0, dtype=np.bool_)
        return self._mask[lo:hi]

    def failed_in_range(self, first_line: int, n: int) -> Set[int]:
        """Failed lines within ``[first_line, first_line + n)``."""
        lo = max(first_line, 0)
        return set((np.flatnonzero(self._window(first_line, n)) + lo).tolist())

    def any_failed_in_range(self, first_line: int, n: int) -> bool:
        return bool(self._window(first_line, n).any())

    def __iter__(self) -> Iterator[int]:
        return iter(self.failed_indices().tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureMap):
            return NotImplemented
        if self.n_lines != other.n_lines or self._count != other._count:
            return False
        return self._count == 0 or bool(np.array_equal(self._mask, other._mask))

    def __hash__(self) -> int:
        packed = b"" if self._mask is None else np.packbits(self._mask).tobytes()
        return hash((self.n_lines, packed))

    def __repr__(self) -> str:
        return f"FailureMap(n_lines={self.n_lines}, failed={self._count})"

    # ------------------------------------------------------------------
    # OS views (section 3.2.1)
    # ------------------------------------------------------------------
    def page_bitmap(self, page_index: int, geometry: Geometry) -> int:
        """The 64-bit per-page bitmap the OS failure table stores.

        Bit ``i`` set means line ``i`` of the page failed.
        """
        per_page = geometry.lines_per_page
        bits = self._window(page_index * per_page, per_page)
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def page_is_perfect(self, page_index: int, geometry: Geometry) -> bool:
        per_page = geometry.lines_per_page
        return not self.any_failed_in_range(page_index * per_page, per_page)

    def perfect_page_count(self, geometry: Geometry) -> int:
        """Whole pages with no failed line; a partial trailing page is
        no page at all."""
        per_page = geometry.lines_per_page
        n_pages = self.n_lines // per_page
        whole = self.mask[: n_pages * per_page].reshape(n_pages, per_page)
        return n_pages - int(np.count_nonzero(whole.any(axis=1)))

    # ------------------------------------------------------------------
    # Runtime views (section 4.2, "false failures")
    # ------------------------------------------------------------------
    def immix_line_view(self, geometry: Geometry) -> Set[int]:
        """Indices of *Immix* lines poisoned by at least one failed PCM line.

        When the Immix line is larger than the PCM line, one failed
        64 B line poisons the whole Immix line — the paper's "false
        failure" effect (section 6.2).
        """
        poisoned = group_rows(self.mask, geometry.pcm_lines_per_immix_line).any(axis=1)
        return set(np.flatnonzero(poisoned).tolist())

    def false_failure_overhead(self, geometry: Geometry) -> int:
        """Bytes lost to false failures beyond the truly failed bytes.

        Zero when the Immix line equals the PCM line.
        """
        poisoned = len(self.immix_line_view(geometry)) * geometry.immix_line
        true_failed = self.failed_count * geometry.pcm_line
        return poisoned - true_failed

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def union(self, other: "FailureMap") -> "FailureMap":
        if self.n_lines != other.n_lines:
            raise ValueError("maps cover different spans")
        if other._mask is None:
            return self
        if self._mask is None:
            return other
        return FailureMap.from_mask(self._mask | other._mask)

    def with_failure(self, line: int) -> "FailureMap":
        """A copy with one more failed line (dynamic failures)."""
        return self.union(FailureMap(self.n_lines, [line]))

    def subset(self, first_line: int, n: int) -> "FailureMap":
        """The map for a sub-span, re-based to line 0."""
        if first_line < 0 or first_line + n > self.n_lines:
            raise AddressError("subset outside map")
        if self._mask is None:
            return FailureMap(n)
        return FailureMap.from_mask(self._mask[first_line : first_line + n].copy())


def coarsen(map_: FailureMap, granularity_lines: int) -> FailureMap:
    """Re-express a map at a coarser granularity (section 3.3.3).

    The OS may track failures at a coarser granularity to save metadata;
    any group of ``granularity_lines`` containing a failure is then
    entirely unusable. Returns a map at the original line granularity
    with whole groups failed.
    """
    if granularity_lines < 1:
        raise ValueError("granularity must be >= 1 line")
    if not map_.failed_count:
        return map_
    groups = group_rows(map_.mask, granularity_lines).any(axis=1)
    return FailureMap.from_mask(np.repeat(groups, granularity_lines)[: map_.n_lines])
