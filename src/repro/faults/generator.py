"""Failure-map generation (paper sections 5 and 6.4).

Three generation modes, mirroring the paper's methodology exactly:

* **uniform** — every 64 B line fails independently with probability
  ``rate``. This models a wear-leveled memory, where failures have no
  spatial correlation.
* **clustered limit study** — step through aligned regions of
  ``cluster_bytes`` and fail the whole region with probability ``rate``;
  gaps between failures are then at least ``cluster_bytes`` wide while
  each line's failure probability remains ``rate`` (section 6.4).
* **hardware clustering transform** — start from a uniform map, then
  move each region's failures to the region edge the clustering
  hardware would pick (section 3.1.2 / figure 9 methodology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..hardware.clustering import cluster_failure_mask
from ..hardware.geometry import Geometry
from ..units import format_size, is_power_of_two
from .maps import FailureMap, coarsen


def uniform_map(n_lines: int, rate: float, seed: int = 0) -> FailureMap:
    """Fail each line independently with probability ``rate``."""
    _check_rate(rate)
    if rate == 0.0 or n_lines == 0:
        return FailureMap(n_lines)
    rng = np.random.default_rng(seed)
    return FailureMap.from_mask(rng.random(n_lines) < rate)


def clustered_map(
    n_lines: int,
    rate: float,
    cluster_bytes: int,
    geometry: Optional[Geometry] = None,
    seed: int = 0,
) -> FailureMap:
    """Limit-study map: whole aligned ``cluster_bytes`` groups fail.

    ``cluster_bytes`` must be a power-of-two multiple of the PCM line.
    With ``cluster_bytes == pcm_line`` this degenerates to
    :func:`uniform_map` (same distribution, same seed stream).
    """
    _check_rate(rate)
    geometry = geometry or Geometry()
    if cluster_bytes % geometry.pcm_line or not is_power_of_two(
        cluster_bytes // geometry.pcm_line
    ):
        raise ConfigError(
            f"cluster size {format_size(cluster_bytes)} must be a power-of-two "
            f"multiple of the PCM line ({format_size(geometry.pcm_line)})"
        )
    lines_per_cluster = cluster_bytes // geometry.pcm_line
    n_clusters = (n_lines + lines_per_cluster - 1) // lines_per_cluster
    if rate == 0.0 or n_clusters == 0:
        return FailureMap(n_lines)
    rng = np.random.default_rng(seed)
    failed_clusters = rng.random(n_clusters) < rate
    return FailureMap.from_mask(np.repeat(failed_clusters, lines_per_cluster)[:n_lines])


def apply_hardware_clustering(
    map_: FailureMap, geometry: Geometry, include_metadata: bool = False
) -> FailureMap:
    """The logical view after the clustering hardware remaps failures."""
    if not map_.failed_count:
        return map_
    return FailureMap.from_mask(cluster_failure_mask(map_.mask, geometry, include_metadata))


@dataclass(frozen=True)
class FailureModel:
    """Everything needed to regenerate a failure map deterministically.

    Parameters
    ----------
    rate:
        Fraction of 64 B lines failed (0.0 disables failures).
    cluster_bytes:
        None for uniform failures; otherwise the limit-study granularity.
    hw_region_pages:
        0 for no clustering hardware; 1 or 2 (or more) for the paper's
        one-/two-page clustering, applied on top of the distribution.
    include_metadata:
        Charge redirection-map lines as unusable (ablation; the paper's
        evaluation leaves this off).
    map_granularity_lines:
        OS failure-map granularity in PCM lines (section 3.3.3's
        storage/availability trade-off): any group of this many lines
        containing a failure is reported entirely failed. None or 1
        keeps the exact per-line map.
    """

    rate: float = 0.0
    cluster_bytes: Optional[int] = None
    hw_region_pages: int = 0
    include_metadata: bool = False
    map_granularity_lines: Optional[int] = None

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.hw_region_pages < 0:
            raise ConfigError("hw_region_pages must be >= 0")
        if self.map_granularity_lines is not None and self.map_granularity_lines < 1:
            raise ConfigError("map_granularity_lines must be >= 1")

    def describe(self) -> str:
        if self.rate == 0.0:
            return "no failures"
        parts = [f"{self.rate:.0%} lines failed"]
        if self.cluster_bytes:
            parts.append(f"pre-clustered at {format_size(self.cluster_bytes)}")
        else:
            parts.append("uniform")
        if self.hw_region_pages:
            parts.append(f"{self.hw_region_pages}-page hw clustering")
        return ", ".join(parts)

    def build(self, n_lines: int, geometry: Geometry, seed: int = 0) -> FailureMap:
        """Generate the map this model describes."""
        if self.cluster_bytes is not None:
            map_ = clustered_map(n_lines, self.rate, self.cluster_bytes, geometry, seed)
        else:
            map_ = uniform_map(n_lines, self.rate, seed)
        if self.hw_region_pages:
            cluster_geometry = geometry
            if geometry.region_pages != self.hw_region_pages:
                cluster_geometry = Geometry(
                    pcm_line=geometry.pcm_line,
                    page=geometry.page,
                    region_pages=self.hw_region_pages,
                    immix_line=geometry.immix_line,
                    block=geometry.block,
                )
            map_ = apply_hardware_clustering(
                map_, cluster_geometry, self.include_metadata
            )
        if self.map_granularity_lines and self.map_granularity_lines > 1:
            map_ = coarsen(map_, self.map_granularity_lines)
        return map_


#: Convenience: the paper's four headline failure levels.
PAPER_FAILURE_RATES = (0.0, 0.10, 0.25, 0.50)


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"failure rate {rate} outside [0, 1]")
