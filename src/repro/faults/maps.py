"""Failure maps: one bit per 64 B PCM line (paper section 5).

The failure map is the lingua franca of the whole design: the hardware
produces it, the OS stores it (a 64-bit bitmap per 4 KB page), and the
runtime folds it into the collector's line metadata. We represent it
sparsely (a set of failed line indices) because even at 50 % failure the
set-based view keeps the simulator simple, and expose the dense per-page
bitmap the OS tables would store.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Set

from ..errors import AddressError
from ..hardware.geometry import Geometry


class FailureMap:
    """Failure state for ``n_lines`` PCM lines starting at line 0.

    Immutable by convention: transforms return new maps. Line indices
    are module-relative (line 0 is the first line of the mapped span).
    """

    __slots__ = ("n_lines", "_failed")

    def __init__(self, n_lines: int, failed_lines: Iterable[int] = ()) -> None:
        if n_lines < 0:
            raise ValueError("n_lines must be >= 0")
        self.n_lines = n_lines
        failed: FrozenSet[int] = frozenset(failed_lines)
        if failed:
            # One min/max pass validates the whole batch and names a
            # deterministic offender: the lowest line below zero, else
            # the highest line past the end.
            lowest, highest = min(failed), max(failed)
            if lowest < 0 or highest >= n_lines:
                line = lowest if lowest < 0 else highest
                raise AddressError(f"failed line {line} outside map of {n_lines} lines")
        self._failed = failed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_failed(self, line: int) -> bool:
        return line in self._failed

    @property
    def failed_lines(self) -> FrozenSet[int]:
        return self._failed

    @property
    def failed_count(self) -> int:
        return len(self._failed)

    @property
    def failure_rate(self) -> float:
        """Fraction of lines failed."""
        if self.n_lines == 0:
            return 0.0
        return len(self._failed) / self.n_lines

    def failed_in_range(self, first_line: int, n: int) -> Set[int]:
        """Failed lines within ``[first_line, first_line + n)``."""
        return {line for line in self._failed if first_line <= line < first_line + n}

    def any_failed_in_range(self, first_line: int, n: int) -> bool:
        if n < len(self._failed):
            return any(line in self._failed for line in range(first_line, first_line + n))
        return bool(self.failed_in_range(first_line, n))

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._failed))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureMap):
            return NotImplemented
        return self.n_lines == other.n_lines and self._failed == other._failed

    def __hash__(self) -> int:
        return hash((self.n_lines, self._failed))

    def __repr__(self) -> str:
        return f"FailureMap(n_lines={self.n_lines}, failed={len(self._failed)})"

    # ------------------------------------------------------------------
    # OS views (section 3.2.1)
    # ------------------------------------------------------------------
    def page_bitmap(self, page_index: int, geometry: Geometry) -> int:
        """The 64-bit per-page bitmap the OS failure table stores.

        Bit ``i`` set means line ``i`` of the page failed.
        """
        bitmap = 0
        base = page_index * geometry.lines_per_page
        for line in self.failed_in_range(base, geometry.lines_per_page):
            bitmap |= 1 << (line - base)
        return bitmap

    def page_is_perfect(self, page_index: int, geometry: Geometry) -> bool:
        base = page_index * geometry.lines_per_page
        return not self.any_failed_in_range(base, geometry.lines_per_page)

    def perfect_page_count(self, geometry: Geometry) -> int:
        n_pages = self.n_lines // geometry.lines_per_page
        imperfect = {line // geometry.lines_per_page for line in self._failed}
        return n_pages - len(imperfect)

    # ------------------------------------------------------------------
    # Runtime views (section 4.2, "false failures")
    # ------------------------------------------------------------------
    def immix_line_view(self, geometry: Geometry) -> Set[int]:
        """Indices of *Immix* lines poisoned by at least one failed PCM line.

        When the Immix line is larger than the PCM line, one failed
        64 B line poisons the whole Immix line — the paper's "false
        failure" effect (section 6.2).
        """
        ratio = geometry.pcm_lines_per_immix_line
        return {line // ratio for line in self._failed}

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
        return FailureMap(self.n_lines, self._failed | other._failed)

    def with_failure(self, line: int) -> "FailureMap":
        """A copy with one more failed line (dynamic failures)."""
        return FailureMap(self.n_lines, self._failed | {line})

    def subset(self, first_line: int, n: int) -> "FailureMap":
        """The map for a sub-span, re-based to line 0."""
        if first_line < 0 or first_line + n > self.n_lines:
            raise AddressError("subset outside map")
        failed = {line - first_line for line in self.failed_in_range(first_line, n)}
        return FailureMap(n, failed)


def coarsen(map_: FailureMap, granularity_lines: int) -> FailureMap:
    """Re-express a map at a coarser granularity (section 3.3.3).

    The OS may track failures at a coarser granularity to save metadata;
    any group of ``granularity_lines`` containing a failure is then
    entirely unusable. Returns a map at the original line granularity
    with whole groups failed.
    """
    if granularity_lines < 1:
        raise ValueError("granularity must be >= 1 line")
    failed: Set[int] = set()
    for line in map_.failed_lines:
        group = line // granularity_lines
        first = group * granularity_lines
        failed.update(range(first, min(first + granularity_lines, map_.n_lines)))
    return FailureMap(map_.n_lines, failed)
