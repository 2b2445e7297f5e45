"""Page failure bitmaps from the OS table to the line marks, against
the per-line and per-span paths they replaced (:mod:`tests.heap.oracles`).

* A block seeds its segment by copying its pages' Immix fail marks; the
  oracle walks every failed PCM offset.
* The page supply finds spans through flag bytes; the oracle scans
  every span in order.
* The failure table loads a batch as bitmaps; the oracle records one
  line at a time.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.hardware.geometry import Geometry
from repro.heap.block import Block
from repro.heap.heap_table import HeapTable
from repro.heap.page_supply import PageSupply, heap_pages, page_fail_marks
from repro.osim.failure_table import FailureTable

from . import oracles

GEOMETRIES = [Geometry(immix_line=line) for line in (64, 128, 256)]
PER_PAGE = Geometry().lines_per_page
WHOLE_PAGE = (1 << PER_PAGE) - 1


def page_bitmap(rng, kind):
    """One page's failure bitmap: uniform holes, a clustered run at
    either edge (hardware clustering packs a region's failures there),
    or a retired whole page."""
    if kind == "whole":
        return WHOLE_PAGE if rng.random() < 0.5 else 0
    if kind == "clustered":
        run = rng.randrange(PER_PAGE + 1)
        bits = (1 << run) - 1
        return bits if rng.random() < 0.5 else bits << (PER_PAGE - run)
    rate = rng.choice((0.0, 0.02, 0.1, 0.5))
    return sum(1 << i for i in range(PER_PAGE) if rng.random() < rate)


def failing_pages(geometry, seed, kind, n_pages):
    rng = random.Random(seed)
    return heap_pages(
        {index: page_bitmap(rng, kind) for index in range(n_pages)}, geometry
    )


# ----------------------------------------------------------------------
# Block seeding
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    kind=st.sampled_from(["uniform", "clustered", "whole"]),
    seed=st.integers(0, 2**16),
)
def test_block_seeding_matches_per_offset_oracle(geometry, kind, seed):
    table = HeapTable(geometry)
    pages = failing_pages(geometry, seed, kind, 3 * geometry.pages_per_block)
    per_block = geometry.pages_per_block
    for start in range(0, len(pages), per_block):
        block_pages = pages[start : start + per_block]
        block = Block(start, block_pages, geometry, table=table)
        expected = oracles.seed_failed_lines_reference(block_pages, geometry)
        assert oracles.block_segment(block) == expected
        assert block.n_failed == len(expected[2])


@settings(max_examples=40, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 2**16),
    offsets=st.lists(st.integers(0, PER_PAGE - 1), min_size=1, max_size=12),
)
def test_dynamic_page_failures_keep_marks_in_step(geometry, seed, offsets):
    """A page failed line by line carries the marks of its final bitmap,
    and a block built on it afterwards seeds like the oracle."""
    pages = failing_pages(geometry, seed, "uniform", geometry.pages_per_block)
    rng = random.Random(seed)
    for offset in offsets:
        page = rng.choice(pages)
        page.record_failure(offset, geometry)
        assert page.fail_marks == page_fail_marks([page.failed_bits], geometry)[
            page.failed_bits
        ]
    block = Block(0, pages, geometry)
    assert oracles.block_segment(block) == oracles.seed_failed_lines_reference(
        pages, geometry
    )


def test_whole_page_retirement_fails_every_line_of_the_page():
    geometry = Geometry()
    pages = heap_pages(
        {i: WHOLE_PAGE if i == 2 else 0 for i in range(geometry.pages_per_block)},
        geometry,
    )
    block = Block(0, pages, geometry)
    per_page = geometry.immix_lines_per_page
    assert block.failed_line_indices() == list(range(2 * per_page, 3 * per_page))


def test_equal_bitmaps_share_their_marks():
    geometry = Geometry()
    pages = heap_pages({0: 0b101, 1: 0b101, 2: 0, 3: 0}, geometry)
    assert pages[0].fail_marks is pages[1].fail_marks
    assert pages[2].fail_marks is pages[3].fail_marks


# ----------------------------------------------------------------------
# Page supply: flag-byte search vs a scan of every span
# ----------------------------------------------------------------------
OPS = st.lists(
    st.tuples(
        st.sampled_from(["block", "fussy", "fussy_nb", "fussy_pages", "release"]),
        st.integers(0, 2**16),
    ),
    max_size=60,
)


def supply_state(supply):
    return (
        [
            (span.owner, [page.index for page in span.free], span.n_free_perfect)
            for span in supply._spans
        ],
        [page.index for page in supply._parked],
        [page.index for page in supply._borrowed_held],
        supply.free_real_pages,
        supply.accountant.debt,
        supply.los_span_claims,
        supply.fussy_pages_taken,
        supply.relaxed_pages_taken,
    )


def run_ops(supply, ops):
    """Apply ``ops``; returns what each call handed back."""
    held = []
    log = []
    for op, pick in ops:
        try:
            if op == "block":
                pages = supply.take_block_pages()
                log.append(None if pages is None else [p.index for p in pages])
                held.extend(pages or ())
            elif op in ("fussy", "fussy_nb"):
                page = supply.fussy_page(allow_borrow=op == "fussy")
                log.append((page.index, page.borrowed))
                held.append(page)
            elif op == "fussy_pages":
                pages = supply.fussy_pages(1 + pick % 3)
                log.append([(p.index, p.borrowed) for p in pages])
                held.extend(pages)
            elif held:
                page = held.pop(pick % len(held))
                log.append(("release", page.index, page.borrowed))
                supply.release(page)
        except OutOfMemoryError as error:
            log.append(("oom", str(error)))
    return log


@settings(max_examples=80, deadline=None)
@given(
    n_spans=st.integers(1, 6),
    kind=st.sampled_from(["uniform", "clustered", "whole"]),
    seed=st.integers(0, 2**16),
    ops=OPS,
)
def test_span_search_matches_linear_scan(n_spans, kind, seed, ops):
    geometry = Geometry()
    n_pages = n_spans * geometry.pages_per_block
    fast = PageSupply(failing_pages(geometry, seed, kind, n_pages), geometry)
    reference = oracles.LinearScanPageSupply(
        failing_pages(geometry, seed, kind, n_pages), geometry
    )
    assert run_ops(fast, ops) == run_ops(reference, ops)
    assert supply_state(fast) == supply_state(reference)


# ----------------------------------------------------------------------
# Failure table batch load vs one line at a time
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    n_pages=st.integers(1, 24),
    lines=st.lists(st.integers(0, 24 * PER_PAGE - 1), max_size=300),
)
def test_load_lines_bitmaps_match_per_line_records(n_pages, lines):
    geometry = Geometry()
    lines = [line for line in lines if line < n_pages * PER_PAGE]
    bulk = FailureTable(n_pages, geometry)
    batch = bulk.load_lines(lines)
    reference = FailureTable(n_pages, geometry)
    oracles.load_lines_reference(reference, lines)
    assert batch == reference.save() == bulk.save()
    assert bulk.failed_line_count() == reference.failed_line_count()
    assert bulk.imperfect_pages() == reference.imperfect_pages()
    for page in range(n_pages):
        assert bulk.failed_offsets(page) == reference.failed_offsets(page)


def test_load_lines_builds_no_offset_sets():
    table = FailureTable(8, Geometry())
    table.load_lines([1, 70, 71, 300])
    assert table._offsets_cache == {}
    with pytest.raises(ValueError):
        table.load_lines([2])
