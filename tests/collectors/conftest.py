"""Shared helpers for collector tests."""

import pytest

from repro.hardware.geometry import Geometry
from repro.heap.line_table import FAILED
from repro.heap.page_supply import PageSupply
from tests.heap.oracles import pages_from_offsets

G = Geometry()


def build_supply(n_blocks=8, failure_map=None, geometry=G):
    """A supply of n_blocks worth of pages; failure_map maps page index
    to a set of failed PCM line offsets."""
    pages = pages_from_offsets(
        failure_map or {}, geometry, n_blocks * geometry.pages_per_block
    )
    return PageSupply(pages, geometry)


def assert_no_object_on_failed_line(collector):
    """The paper's core invariant: live objects never overlap failures."""
    line_size = collector.geometry.immix_line
    for block in collector.blocks:
        failed = block.failed_line_indices()
        for obj in block.objects:
            for line in obj.line_span(line_size):
                assert line not in failed, (
                    f"object {obj.oid} overlaps failed line {line} "
                    f"of block {block.virtual_index}"
                )


def assert_no_overlapping_objects(collector):
    """No two objects may occupy the same bytes of a block."""
    for block in collector.blocks:
        extents = sorted((obj.offset, obj.offset + obj.size) for obj in block.objects)
        for (_, prev_end), (next_start, _) in zip(extents, extents[1:]):
            assert prev_end <= next_start, f"overlap in block {block.virtual_index}"


def assert_heap_consistent(collector):
    assert_no_object_on_failed_line(collector)
    assert_no_overlapping_objects(collector)
