"""Hardware failure clustering (paper section 3.1.2).

As lines fail, uniformly scattered holes fragment the address space. The
paper's clustering hardware logically remaps failed lines to one end of
a *region* (one or more pages) through a small per-region redirection
map, so working lines always form one contiguous run. With two-page
regions, all failures of the pair collect in one page, manufacturing
logically perfect pages for page-grained allocators.

Two artifacts live here:

* :class:`RedirectionMap` — the per-region hardware state, exercised by
  the dynamic-failure path (a failure arrives, the map swaps it to the
  boundary).
* :func:`cluster_failure_mask` — the static transform used by the fault
  injector: given a physical per-line failure mask, produce the logical view
  software would observe with clustering enabled. This mirrors the
  paper's methodology ("move those failures according to our one- and
  two-page clustering algorithm, alternatively moving all failures to
  the start or end of each clustering region").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .geometry import Geometry, group_rows


def region_direction(region_index: int) -> str:
    """Clustering direction for a region: the paper alternates by parity.

    Even regions push failures to their start, odd regions to their end,
    so the working spans of neighbouring regions abut and form runs that
    cross region boundaries.
    """
    return "start" if region_index % 2 == 0 else "end"


class RedirectionMap:
    """Redirection state for one clustering region.

    The map translates the logical line offset the cache hierarchy
    addresses into the physical line actually accessed. Initially the
    identity; each failure swaps the failed slot with the slot at the
    moving boundary, so failed *logical* offsets stay contiguous at one
    end of the region.
    """

    def __init__(self, n_lines: int, direction: str = "start") -> None:
        if n_lines < 2:
            raise ValueError("a region needs at least two lines")
        if direction not in ("start", "end"):
            raise ValueError(f"direction must be 'start' or 'end', not {direction!r}")
        self.n_lines = n_lines
        self.direction = direction
        self.logical_to_physical: List[int] = list(range(n_lines))
        self.failed_count = 0
        #: Installed lazily on first failure, like the real hardware.
        self.installed = False

    # ------------------------------------------------------------------
    def translate(self, logical_offset: int) -> int:
        """Physical line offset backing ``logical_offset``."""
        return self.logical_to_physical[logical_offset]

    def _boundary_slot(self) -> int:
        """Logical slot that the next failure will be swapped into."""
        if self.direction == "start":
            return self.failed_count
        return self.n_lines - 1 - self.failed_count

    def failed_logical_offsets(self) -> range:
        """The contiguous run of failed logical offsets."""
        if self.direction == "start":
            return range(0, self.failed_count)
        return range(self.n_lines - self.failed_count, self.n_lines)

    def is_failed(self, logical_offset: int) -> bool:
        if self.direction == "start":
            return logical_offset < self.failed_count
        return logical_offset >= self.n_lines - self.failed_count

    # ------------------------------------------------------------------
    def record_failure(self, logical_offset: int) -> int:
        """Handle a failure observed at ``logical_offset``.

        Swaps the broken physical line to the boundary slot and returns
        the logical offset that is now failed (the boundary slot). The
        caller reports *that* offset to the OS: data previously stored
        at the boundary slot has physically swapped to ``logical_offset``
        and survives; the boundary slot must be evacuated.
        """
        if self.failed_count >= self.n_lines:
            raise ValueError("every line in the region has already failed")
        if not self.installed:
            self.installed = True
        if self.is_failed(logical_offset):
            raise ValueError(
                f"logical offset {logical_offset} is already in the failed zone"
            )
        boundary = self._boundary_slot()
        mapping = self.logical_to_physical
        mapping[logical_offset], mapping[boundary] = (
            mapping[boundary],
            mapping[logical_offset],
        )
        self.failed_count += 1
        return boundary

    def working_span(self) -> range:
        """Logical offsets that still work, always contiguous."""
        if self.direction == "start":
            return range(self.failed_count, self.n_lines)
        return range(0, self.n_lines - self.failed_count)


class ClusteringController:
    """All redirection maps for a PCM module, created on demand."""

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        self._per_region = geometry.lines_per_region
        self._maps: dict = {}
        #: Optional observability hook; see :mod:`repro.obs.trace`.
        self.tracer = None

    def map_for_region(self, region_index: int) -> RedirectionMap:
        rmap = self._maps.get(region_index)
        if rmap is None:
            rmap = RedirectionMap(
                self.geometry.lines_per_region, region_direction(region_index)
            )
            self._maps[region_index] = rmap
        return rmap

    def peek(self, region_index: int) -> Optional[RedirectionMap]:
        """The region's map if one was ever installed, else None."""
        return self._maps.get(region_index)

    def translate_line(self, global_line: int) -> int:
        """Global physical line index backing global logical line index."""
        per_region = self._per_region
        region_index, offset = divmod(global_line, per_region)
        rmap = self._maps.get(region_index)
        if rmap is None:
            return global_line
        return region_index * per_region + rmap.translate(offset)

    def record_failure(self, global_line: int) -> int:
        """Route a failure through its region map; return the logical
        global line index that software must treat as failed."""
        per_region = self._per_region
        region_index, offset = divmod(global_line, per_region)
        rmap = self.map_for_region(region_index)
        boundary = rmap.record_failure(offset)
        reported = region_index * per_region + boundary
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "clustering.remap",
                cat="hardware",
                args={
                    "region": region_index,
                    "failed_line": global_line,
                    "reported_line": reported,
                    "region_failed_count": rmap.failed_count,
                },
            )
        return reported

    def installed_map_count(self) -> int:
        return sum(1 for m in self._maps.values() if m.installed)


# ----------------------------------------------------------------------
# Static transform used by the fault injector
# ----------------------------------------------------------------------
def cluster_failure_mask(
    failed: np.ndarray,
    geometry: Geometry,
    include_metadata: bool = False,
) -> np.ndarray:
    """Logical failure mask under hardware clustering.

    Parameters
    ----------
    failed:
        Per-line bool mask of the PCM lines that physically failed
        (uniform map), line 0 first.
    geometry:
        Supplies the region size; ``geometry.region_pages`` selects
        one-page vs two-page (or larger) clustering.
    include_metadata:
        When True, the redirection-map lines themselves (consumed in any
        region that has at least one failure) are also reported as
        unusable. The paper's evaluation does not charge this cost; it
        is exposed here as an ablation.

    Returns
    -------
    The mask software observes, over the same lines: within each region
    the same *count* of failures as the physical map, packed at the
    start of even regions and the end of odd regions
    (:func:`region_direction`). A partial trailing region is clustered
    as if whole and then cut back to the mask's length, so its failures
    (and charged metadata) past the end are dropped.
    """
    per_region = geometry.lines_per_region
    counts = np.count_nonzero(group_rows(failed, per_region), axis=1)
    n_regions = len(counts)
    map_lines = geometry.redirection_map_lines() if include_metadata else 0
    charged = np.where(counts > 0, np.minimum(counts + map_lines, per_region), 0)
    first = np.where(np.arange(n_regions) % 2 == 0, 0, per_region - charged)
    offsets = np.arange(per_region)
    logical = (offsets >= first[:, None]) & (offsets < (first + charged)[:, None])
    return logical.reshape(-1)[: len(failed)]
