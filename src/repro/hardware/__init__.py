"""Hardware substrate: PCM module, ECC, failure buffer, clustering, DRAM.

This package models the memory-system side of the paper's cooperative
design. Nothing here knows about garbage collection; the OS layer
(:mod:`repro.osim`) is the only consumer of the interrupt and
failure-map interfaces exported here.
"""

from .clustering import (
    ClusteringController,
    RedirectionMap,
    cluster_failure_mask,
    region_direction,
)
from .dram import DramModule
from .ecc import DEFAULT_ENTRIES_PER_LINE, EccDomain, LineEcc
from .failure_buffer import FailureBuffer, FailureEntry, InterruptKind
from .geometry import PAPER_DEFAULT, Geometry
from .pcm import EnduranceModel, PcmModule
from .wear_leveling import (
    NoWearLeveling,
    StartGapWearLeveler,
    WearLeveler,
    spread_statistics,
)

__all__ = [
    "ClusteringController",
    "RedirectionMap",
    "cluster_failure_mask",
    "region_direction",
    "DramModule",
    "DEFAULT_ENTRIES_PER_LINE",
    "EccDomain",
    "LineEcc",
    "FailureBuffer",
    "FailureEntry",
    "InterruptKind",
    "PAPER_DEFAULT",
    "Geometry",
    "EnduranceModel",
    "PcmModule",
    "NoWearLeveling",
    "StartGapWearLeveler",
    "WearLeveler",
    "spread_statistics",
]
