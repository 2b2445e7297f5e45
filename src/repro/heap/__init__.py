"""Heap substrate: objects, line tables, blocks, page supply, LOS."""

from .block import (
    Block,
    block_is_perfect,
    perfect_block,
    sort_key_most_holes,
    sorted_defrag_candidates,
)
from .heap_table import UNMAPPED, HeapTable, LineSegment
from .large_object_space import LargeObjectSpace, Placement
from .line_table import (
    FAILED,
    FREE,
    LIVE,
    LIVE_PINNED,
    FreeRunSummary,
    free_run_summary,
    free_runs,
    state_name,
)
from .object_model import (
    ALIGNMENT,
    HEADER_BYTES,
    ObjectFactory,
    SimObject,
    aligned_size,
    mark_live,
)
from .page_supply import HeapPage, PageSupply

__all__ = [
    "Block",
    "block_is_perfect",
    "perfect_block",
    "sort_key_most_holes",
    "sorted_defrag_candidates",
    "LargeObjectSpace",
    "Placement",
    "HeapTable",
    "LineSegment",
    "UNMAPPED",
    "FAILED",
    "FREE",
    "LIVE",
    "LIVE_PINNED",
    "FreeRunSummary",
    "free_run_summary",
    "free_runs",
    "state_name",
    "ALIGNMENT",
    "HEADER_BYTES",
    "ObjectFactory",
    "SimObject",
    "aligned_size",
    "mark_live",
    "HeapPage",
    "PageSupply",
]
