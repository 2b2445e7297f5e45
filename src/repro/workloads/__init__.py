"""Synthetic DaCapo-style workloads and the trace driver."""

from .dacapo import ANALYSIS_EXCLUDED, BY_NAME, DACAPO, analysis_suite, full_suite, workload
from .driver import DriveResult, TraceDriver, estimate_min_heap
from .spec import LARGE, MEDIUM, SMALL, SizeBand, WorkloadSpec

__all__ = [
    "ANALYSIS_EXCLUDED",
    "BY_NAME",
    "DACAPO",
    "analysis_suite",
    "full_suite",
    "workload",
    "DriveResult",
    "TraceDriver",
    "estimate_min_heap",
    "LARGE",
    "MEDIUM",
    "SMALL",
    "SizeBand",
    "WorkloadSpec",
]
