"""Wear-leveling schemes (paper sections 2.2 and 7.2).

The paper's provocative claim is that wear leveling — the accepted
hardware wisdom — is *harmful* once failures begin, because spreading
writes uniformly spreads failures uniformly, maximizing fragmentation.
To let experiments test that claim we implement the classic Start-Gap
leveler (Qureshi et al., MICRO 2009) alongside a no-op leveler, and an
ablation benchmark compares memory lifetime and post-failure overhead
under both.
"""

from __future__ import annotations

from typing import List


class WearLeveler:
    """Interface: translate logical line indices to physical ones."""

    def translate(self, line_index: int) -> int:
        raise NotImplementedError

    def on_write(self, line_index: int) -> None:
        """Notify the leveler of one line write (may trigger remapping)."""
        raise NotImplementedError

    def write_line(self, line_index: int) -> int:
        """One line write: :meth:`on_write`, then the line's
        :meth:`translate` under the mapping that write left. This is
        the one call the PCM module makes per written line."""
        self.on_write(line_index)
        return self.translate(line_index)

    def physical_lines(self, n_lines: int) -> int:
        """Size of the physical index space ``translate`` maps the
        logical lines ``[0, n_lines)`` into."""
        return n_lines


class NoWearLeveling(WearLeveler):
    """Identity mapping: writes land where software puts them."""

    def translate(self, line_index: int) -> int:
        return line_index

    def on_write(self, line_index: int) -> None:
        return None


class StartGapWearLeveler(WearLeveler):
    """Start-Gap wear leveling over fixed-size domains of lines.

    Each domain of ``domain_lines`` logical lines is backed by
    ``domain_lines + 1`` physical slots; one slot — the *gap* — holds no
    data. Every ``gap_write_interval`` writes to a domain, the gap moves
    down by one slot (the hardware copies one line), slowly rotating the
    logical-to-physical mapping and spreading wear across the domain.

    Mapping (per the MICRO 2009 paper): with start pointer ``S`` and gap
    position ``G`` in a domain of ``N`` lines / ``N+1`` slots,

    * slot = (logical + S) mod (N + 1)
    * if slot >= G the line shifts down one slot (the gap sits above it)

    We return physical *line* indices in the same index space as logical
    lines; the +1 spare slot per domain is virtual (the last logical
    line of each domain folds onto slot N when unshifted), which keeps
    the leveler composable with the rest of the module without changing
    its wear-spreading behaviour.
    """

    def __init__(self, domain_lines: int = 256, gap_write_interval: int = 100) -> None:
        if domain_lines < 2:
            raise ValueError("domain_lines must be >= 2")
        if gap_write_interval < 1:
            raise ValueError("gap_write_interval must be >= 1")
        self.domain_lines = domain_lines
        self.gap_write_interval = gap_write_interval
        self._starts: dict = {}
        self._gaps: dict = {}
        self._write_counts: dict = {}
        #: Total gap movements performed (each models one line copy).
        self.gap_moves = 0

    def _domain_state(self, domain: int) -> tuple:
        start = self._starts.get(domain, 0)
        gap = self._gaps.get(domain, self.domain_lines)
        return start, gap

    def translate(self, line_index: int) -> int:
        n = self.domain_lines
        domain, offset = divmod(line_index, n)
        slot = (offset + self._starts.get(domain, 0)) % (n + 1)
        if slot >= self._gaps.get(domain, n):
            slot = (slot + 1) % (n + 1)
        # Fold the virtual spare slot back into the domain's line range.
        return domain * n + (slot % n)

    def on_write(self, line_index: int) -> None:
        n = self.domain_lines
        domain = line_index // n
        count = self._write_counts.get(domain, 0) + 1
        if count >= self.gap_write_interval:
            count = 0
            self._move_gap(domain)
        self._write_counts[domain] = count

    def write_line(self, line_index: int) -> int:
        # on_write then translate, inlined: the store path's one call.
        n = self.domain_lines
        domain, offset = divmod(line_index, n)
        counts = self._write_counts
        count = counts.get(domain, 0) + 1
        if count >= self.gap_write_interval:
            count = 0
            self._move_gap(domain)
        counts[domain] = count
        slot = (offset + self._starts.get(domain, 0)) % (n + 1)
        if slot >= self._gaps.get(domain, n):
            slot = (slot + 1) % (n + 1)
        return domain * n + (slot % n)

    def _move_gap(self, domain: int) -> None:
        n = self.domain_lines
        start, gap = self._domain_state(domain)
        gap -= 1
        if gap < 0:
            gap = n
            start = (start + 1) % (n + 1)
        self._starts[domain] = start
        self._gaps[domain] = gap
        self.gap_moves += 1

    def physical_lines(self, n_lines: int) -> int:
        # A partial last domain still folds over a whole domain's lines.
        return -(-n_lines // self.domain_lines) * self.domain_lines

    def rotation_of(self, domain: int) -> int:
        """How far the domain's mapping has rotated (for tests)."""
        return self._starts.get(domain, 0)


def spread_statistics(write_counts: List[int]) -> dict:
    """Summary statistics for how evenly wear is spread.

    Returns max/mean ratio and the coefficient of variation; a perfect
    leveler drives both toward their minima (1.0 and 0.0).
    """
    if not write_counts:
        return {"max_over_mean": 0.0, "cv": 0.0}
    n = len(write_counts)
    mean = sum(write_counts) / n
    if mean == 0:
        return {"max_over_mean": 0.0, "cv": 0.0}
    variance = sum((c - mean) ** 2 for c in write_counts) / n
    return {
        "max_over_mean": max(write_counts) / mean,
        "cv": (variance**0.5) / mean,
    }
