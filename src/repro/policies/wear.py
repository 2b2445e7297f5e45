"""Hardware-layer wear-leveling policies.

A wear-leveling policy answers two questions the hardware layer used to
hard-code:

1. **How does address remapping reshape a static failure map?**
   ``transform_static_map`` runs between failure-map generation and
   injection into the PCM module, so every downstream view (OS failure
   tables, collector line metadata, invariant checkers) sees one
   coherent, already-transformed map.
2. **Where do writes land relative to line wear during wearing runs?**
   ``build_leveler`` returns the :class:`~repro.hardware.wear_leveling.
   WearLeveler` the PCM module consults on every write.

The paper's position (``none``) is that the runtime tolerates holes, so
the hardware should do nothing. The two baselines model the
counter-designs from PAPERS.md: WoLFRaM's programmable address decoders
and SoftWear's software-only region rotation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..faults.maps import FailureMap
from ..hardware.wear_leveling import (
    NoWearLeveling,
    StartGapWearLeveler,
    WearLeveler,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..hardware.geometry import Geometry


class WearLevelingPolicy:
    """Interface: deterministic, stateless, picklable."""

    #: Registry key; also the ``RunConfig.wear_policy`` spelling.
    name = "none"

    def transform_static_map(
        self, static_map: FailureMap, geometry: "Geometry", seed: int
    ) -> FailureMap:
        """Reshape the generated static map; identity by default."""
        return static_map

    def build_leveler(self, geometry: "Geometry", seed: int) -> WearLeveler:
        """The write-path leveler for wearing/lifetime runs."""
        return NoWearLeveling()

    def describe(self) -> dict:
        return {"name": self.name}

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class NoWearPolicy(WearLevelingPolicy):
    """The paper's design: no hardware wear management at all."""

    name = "none"


class WolframWearPolicy(WearLevelingPolicy):
    """WoLFRaM-style programmable address decoders.

    Failed lines are remapped into a spare region at the top of the
    module: the decoder redirects a failed line's address to a healthy
    spare, so the original address becomes usable again while the
    consumed spare drops out of the usable pool. The remap table is
    finite (``spare_fraction`` of the module), so at low failure rates
    nearly all damage is absorbed — scattered holes concentrate into a
    few sacrificed pages and the OS recovers perfect pages — while at
    high rates the table saturates and the module behaves like the
    unmanaged baseline minus its spare capacity.

    Remapping is deterministic: the lowest failed addresses are absorbed
    first, spares are consumed from the top of the module downward, and
    a spare is never itself a failed line.
    """

    name = "wolfram"

    def __init__(self, spare_fraction: float = 0.02) -> None:
        self.spare_fraction = spare_fraction

    def transform_static_map(
        self, static_map: FailureMap, geometry: "Geometry", seed: int
    ) -> FailureMap:
        n_lines = static_map.n_lines
        if not static_map.failed_count:
            return static_map
        capacity = max(
            geometry.lines_per_page, int(n_lines * self.spare_fraction)
        )
        mask = static_map.mask
        # Spares: the top healthy lines, highest first. Victims: the
        # lowest failed lines, lowest first, paired with them in order.
        spares = n_lines - 1 - np.flatnonzero(~mask[::-1])[:capacity]
        victims = static_map.failed_indices()[: len(spares)]
        spares = spares[: len(victims)]
        # Stop where the spare region has grown down into the damage it
        # is meant to absorb; further remapping only shuffles loss.
        # Spares fall as victims rise, so the pairs to keep are a prefix.
        paired = int(np.count_nonzero(spares > victims))
        remapped = mask.copy()
        remapped[victims[:paired]] = False
        remapped[spares[:paired]] = True
        return FailureMap.from_mask(remapped)

    def build_leveler(self, geometry: "Geometry", seed: int) -> WearLeveler:
        # The decoder doubles as a Start-Gap-style rotation engine: one
        # gap line per leveling domain, rotated every 64 writes.
        return StartGapWearLeveler(
            domain_lines=geometry.lines_per_page * 4, gap_write_interval=64
        )

    def describe(self) -> dict:
        return {"name": self.name, "spare_fraction": self.spare_fraction}


class RegionRotationLeveler(WearLeveler):
    """Software-triggered rotation of whole regions (SoftWear).

    Every ``rotate_interval`` writes to a region, software bumps that
    region's rotation offset by one line; reads and writes are
    redirected through the offset. Purely software state — no decoder
    hardware — so the rotation granularity is coarse and the translate
    cost is paid on every access.
    """

    def __init__(self, region_lines: int, rotate_interval: int = 4096) -> None:
        if region_lines <= 0:
            raise ValueError("region_lines must be > 0")
        if rotate_interval <= 0:
            raise ValueError("rotate_interval must be > 0")
        self.region_lines = region_lines
        self.rotate_interval = rotate_interval
        self._offsets: dict = {}
        self._write_counts: dict = {}
        self.rotations = 0

    def translate(self, line_index: int) -> int:
        region = line_index // self.region_lines
        offset = self._offsets.get(region, 0)
        if not offset:
            return line_index
        base = region * self.region_lines
        return base + (line_index - base + offset) % self.region_lines

    def on_write(self, line_index: int) -> None:
        region = line_index // self.region_lines
        count = self._write_counts.get(region, 0) + 1
        if count >= self.rotate_interval:
            self._offsets[region] = (
                self._offsets.get(region, 0) + 1
            ) % self.region_lines
            self.rotations += 1
            count = 0
        self._write_counts[region] = count

    def physical_lines(self, n_lines: int) -> int:
        # A partial last region still rotates over a whole region's lines.
        return -(-n_lines // self.region_lines) * self.region_lines


class SoftwearWearPolicy(WearLevelingPolicy):
    """SoftWear-style software-only in-memory wear leveling.

    Static view: accumulated rotation displaces where failures sit
    relative to the data layout, so a clustered map loses its page
    alignment — each region's failures land at a deterministic
    seed-derived rotation of their hardware positions. This is exactly
    the interaction the paper predicts is harmful: rotation smears the
    clustering hardware's carefully contiguous damage back across page
    boundaries, turning few fully-dead pages into many imperfect ones.

    Wearing view: :class:`RegionRotationLeveler`.
    """

    name = "softwear"

    def __init__(self, region_pages: int = 8, rotate_interval: int = 4096) -> None:
        if region_pages <= 0:
            raise ValueError("region_pages must be > 0")
        self.region_pages = region_pages
        self.rotate_interval = rotate_interval

    def _rotation(self, region: int, span: int, seed: int) -> int:
        # Knuth multiplicative hash over (region, seed): stable across
        # processes, different per region, different per seed.
        mixed = (region * 2654435761 + (seed + 1) * 40503) & 0xFFFFFFFF
        return mixed % span

    def transform_static_map(
        self, static_map: FailureMap, geometry: "Geometry", seed: int
    ) -> FailureMap:
        n_lines = static_map.n_lines
        if not static_map.failed_count:
            return static_map
        region_lines = geometry.lines_per_page * self.region_pages
        n_regions = -(-n_lines // region_lines)
        bases = np.arange(n_regions, dtype=np.int64) * region_lines
        spans = np.minimum(region_lines, n_lines - bases)
        offsets = np.array(
            [
                self._rotation(region, int(span), seed)
                for region, span in enumerate(spans)
            ],
            dtype=np.int64,
        )
        lines = static_map.failed_indices()
        regions = lines // region_lines
        base = bases[regions]
        rotated = np.zeros(n_lines, dtype=np.bool_)
        rotated[base + (lines - base + offsets[regions]) % spans[regions]] = True
        return FailureMap.from_mask(rotated)

    def build_leveler(self, geometry: "Geometry", seed: int) -> WearLeveler:
        return RegionRotationLeveler(
            region_lines=geometry.lines_per_page * self.region_pages,
            rotate_interval=self.rotate_interval,
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "region_pages": self.region_pages,
            "rotate_interval": self.rotate_interval,
        }
