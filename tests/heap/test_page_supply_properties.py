"""Property-based tests for the span supply's conservation invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.hardware.geometry import Geometry
from repro.heap.page_supply import PageSupply
from tests.heap.oracles import pages_from_offsets

G = Geometry()
PER_SPAN = G.pages_per_block


def build(n_spans, failed_pattern, seed):
    rng = random.Random(seed)
    n_pages = n_spans * PER_SPAN
    failures = {
        index: [o for o in range(G.lines_per_page) if rng.random() < failed_pattern]
        for index in range(n_pages)
    }
    return PageSupply(pages_from_offsets(failures, G, n_pages), G)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 0.1, 0.5]),
    st.integers(min_value=0, max_value=2**32),
    st.lists(st.sampled_from(["block", "fussy", "release"]), max_size=40),
)
def test_page_conservation(n_spans, failed_pattern, seed, ops):
    """Pages are never created or destroyed: held + free + parked is
    constant, and every page returns to its own span."""
    supply = build(n_spans, failed_pattern, seed)
    total = supply.total_pages
    held = []
    for op in ops:
        if op == "block":
            pages = supply.take_block_pages()
            if pages:
                held.extend(pages)
        elif op == "fussy":
            try:
                page = supply.fussy_page()
            except OutOfMemoryError:
                continue
            held.append(page)
        elif op == "release" and held:
            supply.release(held.pop())
        borrowed_held = sum(1 for p in held if p.borrowed)
        real_held = len(held) - borrowed_held
        assert (
            supply.free_real_pages + real_held + supply.parked_pages == total
        ), f"conservation violated after {op}"
        assert supply.accountant.debt == supply.parked_pages
    # Releasing everything restores the full pool.
    while held:
        supply.release(held.pop())
    assert supply.free_real_pages == total
    assert supply.parked_pages == 0
    assert supply.accountant.debt == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_fussy_pages_are_always_perfect(seed):
    supply = build(3, 0.3, seed)
    for _ in range(10):
        try:
            page = supply.fussy_page()
        except OutOfMemoryError:
            break
        assert page.is_perfect or page.borrowed


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_block_spans_are_whole_and_disjoint(seed):
    supply = build(4, 0.2, seed)
    seen = set()
    while True:
        pages = supply.take_block_pages()
        if pages is None:
            break
        indices = {p.index for p in pages}
        assert len(indices) == PER_SPAN
        assert not (indices & seen)
        seen |= indices
        # All pages of one span are consecutive.
        assert max(indices) - min(indices) == PER_SPAN - 1
