"""Set-based reference implementations of the failure-map transforms.

``src/repro`` keeps one representation of failed lines, a per-line
numpy mask. These are the transforms as they were written over Python
int sets, one line at a time: the property suite in
``tests/faults/test_mask_oracles.py`` requires each mask transform to
produce exactly the set its reference does, and
``benchmarks/test_kernels.py`` times one against the other. Nothing in
``src/`` calls this module.
"""

from typing import Iterable, Set

import numpy as np

from repro.hardware.clustering import region_direction
from repro.hardware.geometry import Geometry


def uniform_reference(n_lines: int, rate: float, seed: int = 0) -> Set[int]:
    if rate == 0.0 or n_lines == 0:
        return set()
    rng = np.random.default_rng(seed)
    return set(np.flatnonzero(rng.random(n_lines) < rate).tolist())


def clustered_reference(
    n_lines: int, rate: float, cluster_bytes: int, geometry: Geometry, seed: int = 0
) -> Set[int]:
    lines_per_cluster = cluster_bytes // geometry.pcm_line
    n_clusters = (n_lines + lines_per_cluster - 1) // lines_per_cluster
    if rate == 0.0 or n_clusters == 0:
        return set()
    rng = np.random.default_rng(seed)
    failed: Set[int] = set()
    for cluster in np.flatnonzero(rng.random(n_clusters) < rate):
        first = int(cluster) * lines_per_cluster
        failed.update(range(first, min(first + lines_per_cluster, n_lines)))
    return failed


def cluster_reference(
    failed_lines: Iterable[int], geometry: Geometry, include_metadata: bool = False
) -> Set[int]:
    """Each region's failure count packed at its parity's edge (no clamp)."""
    per_region = geometry.lines_per_region
    counts: dict = {}
    for line in failed_lines:
        region = line // per_region
        counts[region] = counts.get(region, 0) + 1
    logical: Set[int] = set()
    map_lines = geometry.redirection_map_lines() if include_metadata else 0
    for region, count in counts.items():
        charged = min(per_region, count + map_lines)
        base = region * per_region
        if region_direction(region) == "start":
            logical.update(range(base, base + charged))
        else:
            logical.update(range(base + per_region - charged, base + per_region))
    return logical


def hardware_clustering_reference(
    failed_lines: Iterable[int],
    n_lines: int,
    geometry: Geometry,
    include_metadata: bool = False,
) -> Set[int]:
    """:func:`cluster_reference` clamped to the map's ``n_lines``."""
    logical = cluster_reference(failed_lines, geometry, include_metadata)
    return {line for line in logical if line < n_lines}


def coarsen_reference(
    failed_lines: Iterable[int], n_lines: int, granularity_lines: int
) -> Set[int]:
    failed: Set[int] = set()
    for line in failed_lines:
        first = line // granularity_lines * granularity_lines
        failed.update(range(first, min(first + granularity_lines, n_lines)))
    return failed


def subset_reference(failed_lines: Iterable[int], first_line: int, n: int) -> Set[int]:
    return {
        line - first_line for line in failed_lines if first_line <= line < first_line + n
    }


def wolfram_reference(
    failed_lines: Iterable[int], n_lines: int, geometry: Geometry, spare_fraction: float
) -> Set[int]:
    failed = set(failed_lines)
    if not failed or n_lines == 0:
        return failed
    capacity = max(geometry.lines_per_page, int(n_lines * spare_fraction))
    spares = []
    for line in range(n_lines - 1, -1, -1):
        if len(spares) >= capacity:
            break
        if line not in failed:
            spares.append(line)
    remapped = set(failed)
    for victim, spare in zip(sorted(failed), spares):
        if spare <= victim:
            break
        remapped.discard(victim)
        remapped.add(spare)
    return remapped


def softwear_reference(
    failed_lines: Iterable[int], n_lines: int, geometry: Geometry, policy, seed: int
) -> Set[int]:
    region_lines = geometry.lines_per_page * policy.region_pages
    rotated = set()
    for line in failed_lines:
        region = line // region_lines
        base = region * region_lines
        span = min(region_lines, n_lines - base)
        offset = policy._rotation(region, span, seed)
        rotated.add(base + (line - base + offset) % span)
    return rotated
