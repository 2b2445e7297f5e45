"""The VM's page supply: span ownership and the debit-credit model.

The runtime receives a fixed budget of (possibly imperfect) pages from
the OS via the fault injector. Like MMTk, the heap hands memory to its
spaces at a coarse granularity: *spans* of ``pages_per_block``
consecutive pages. The relaxed Immix block space claims whole free
spans; the fussy page-grained large object space claims spans too, but
only consumes their *perfect* pages — the imperfect remainder of a
LOS-claimed span is dead weight until the span empties.

That dead weight is the heart of the paper's two-page-clustering
threshold effect: while every 2-page region yields a perfect page
(failure rate < 50 %), a LOS span is half-usable and cheap; once
regions start yielding none, the LOS burns a whole span for one or two
perfect pages and the collector feels the loss.

When a fussy request finds no perfect PCM page at all, a page is
borrowed (modelling scarce DRAM) and the paper's one-page *space
penalty* is charged by parking one real free page for the duration of
the loan. The relaxed allocator repays outstanding debt by declining
perfect pages it is later offered.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..errors import OutOfMemoryError
from ..faults.accounting import PerfectPageAccountant
from ..hardware.geometry import Geometry, popcount

#: Span owners.
SPAN_FREE = 0
SPAN_BLOCKS = 1
SPAN_LOS = 2


class HeapPage:
    """VM-side view of one page backing the heap.

    ``failed_bits`` is the page's failure bitmap as the OS reports it
    (bit *i* set = page-relative PCM line *i* failed). ``fail_marks``
    is its expansion into the page's Immix lines, one byte per line (1
    = failed), which a block copies into its heap-table segment; it is
    only read while ``failed_bits`` is non-zero. Build failing pages
    with :func:`heap_pages` and fail one with :meth:`record_failure`,
    which keep the two in step.
    """

    __slots__ = ("index", "failed_bits", "fail_marks", "borrowed")

    def __init__(
        self,
        index: int,
        failed_bits: int = 0,
        fail_marks: bytes = b"",
        borrowed: bool = False,
    ) -> None:
        self.index = index
        self.failed_bits = failed_bits
        self.fail_marks = fail_marks
        self.borrowed = borrowed

    @property
    def is_perfect(self) -> bool:
        return not self.failed_bits

    def record_failure(self, pcm_offset: int, geometry: Geometry) -> None:
        """Fail one more PCM line of this page (a dynamic failure)."""
        marks = bytearray(
            self.fail_marks if self.failed_bits else bytes(geometry.immix_lines_per_page)
        )
        marks[pcm_offset // geometry.pcm_lines_per_immix_line] = 1
        self.failed_bits |= 1 << pcm_offset
        self.fail_marks = bytes(marks)

    def __repr__(self) -> str:
        kind = "borrowed" if self.borrowed else ("perfect" if self.is_perfect else
                                                 f"{popcount(self.failed_bits)} holes")
        return f"HeapPage({self.index}, {kind})"


def page_fail_marks(bitmaps: Iterable[int], geometry: Geometry) -> Dict[int, bytes]:
    """Immix-line fail marks of each distinct PCM failure bitmap.

    One numpy pass: the bitmaps unpack into a pages x PCM-lines bit
    matrix, each Immix line is failed if any PCM line in it is (the
    paper's false failures at 128 B and 256 B lines), and every row
    comes back as ``immix_lines_per_page`` bytes of 0/1. Equal bitmaps
    share one bytes object.
    """
    distinct = list(dict.fromkeys(bitmaps))
    if not distinct:
        return {}
    per_page = geometry.lines_per_page
    width = -(-per_page // 8)
    raw = b"".join([bits.to_bytes(width, "little") for bits in distinct])
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(distinct), width),
        axis=1,
        bitorder="little",
    )[:, :per_page]
    immix_per_page = geometry.immix_lines_per_page
    marks = bits.reshape(len(distinct), immix_per_page, -1).any(axis=2)
    rows = marks.astype(np.uint8).tobytes()
    return {
        bitmap: rows[i * immix_per_page : (i + 1) * immix_per_page]
        for i, bitmap in enumerate(distinct)
    }


def heap_pages(failures: Dict[int, int], geometry: Geometry) -> List[HeapPage]:
    """Heap pages for ``page index -> failure bitmap``, in its order,
    with every page's Immix fail marks computed in one pass."""
    marks = page_fail_marks(failures.values(), geometry)
    return [HeapPage(index, bits, marks[bits]) for index, bits in failures.items()]


class _Span:
    """``pages_per_block`` consecutive pages with a single owner."""

    __slots__ = ("index", "pages", "owner", "free", "n_free_perfect")

    def __init__(self, index: int, pages: List[HeapPage]) -> None:
        self.index = index
        self.pages = pages
        self.owner = SPAN_FREE
        #: Pages currently free (not handed to a space user).
        self.free: List[HeapPage] = list(pages)
        #: Incremental count of perfect pages in ``free``; lets the
        #: fussy allocator skip whole spans without scanning them.
        #: Every ``free`` mutation in PageSupply keeps it in step.
        self.n_free_perfect = sum(1 for page in pages if not page.failed_bits)

    @property
    def fully_free(self) -> bool:
        return len(self.free) == len(self.pages)


class PageSupply:
    """Span-granular page bookkeeping for one VM heap."""

    def __init__(
        self,
        pages: List[HeapPage],
        geometry: Geometry,
        accountant: Optional[PerfectPageAccountant] = None,
    ) -> None:
        self.geometry = geometry
        self.accountant = accountant or PerfectPageAccountant()
        per_span = geometry.pages_per_block
        usable = len(pages) - len(pages) % per_span
        ordered = sorted(pages[:usable], key=lambda p: p.index)
        self.total_pages = usable
        self._spans: List[_Span] = [
            _Span(i, ordered[i * per_span : (i + 1) * per_span])
            for i in range(usable // per_span)
        ]
        self._span_of_page = {
            page.index: span for span in self._spans for page in span.pages
        }
        #: Three flag arrays of one byte per span, rewritten by
        #: :meth:`_flag` after every span mutation, so finding the
        #: lowest span that qualifies for a request is one
        #: ``bytearray.find``: unowned and fully free (a block's span),
        #: the same with a perfect page (a new LOS span), and LOS-owned
        #: with a free perfect page.
        n_spans = len(self._spans)
        self._claimable = bytearray(n_spans)
        self._claimable_perfect = bytearray(n_spans)
        self._los_perfect = bytearray(n_spans)
        for span in self._spans:
            self._flag(span)
        #: Incremental mirror of ``free_real_pages``: every span.free
        #: mutation below adjusts it, so the allocator's frequent
        #: ``available_pages()`` probes cost O(1) instead of a
        #: generator pass over all spans; :meth:`recount_free_pages` is
        #: the invariant checker's independent recount.
        self._free_pages = usable
        #: Synthetic borrowed (DRAM) pages currently held by fussy users.
        self._borrowed_held: List[HeapPage] = []
        #: Real pages parked to pay the one-page space penalty of each
        #: outstanding borrowed page; returned when the loan ends.
        self._parked: List[HeapPage] = []
        self._next_borrow_index = -1
        #: Called with (old_index, new_index) when a borrowed page held
        #: by a space user adopts a real page's identity (debt
        #: repayment below); lets per-index side tables follow the page.
        self.on_page_reindexed: Optional[Callable[[int, int], None]] = None
        # Statistics
        self.relaxed_pages_taken = 0
        self.fussy_pages_taken = 0
        self.los_span_claims = 0

    def _flag(self, span: _Span) -> None:
        """Rewrite ``span``'s flag bytes from its current state."""
        i = span.index
        claimable = span.owner == SPAN_FREE and len(span.free) == len(span.pages)
        self._claimable[i] = claimable
        self._claimable_perfect[i] = claimable and span.n_free_perfect > 0
        self._los_perfect[i] = span.owner == SPAN_LOS and span.n_free_perfect > 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def free_perfect(self) -> int:
        return sum(
            1
            for span in self._spans
            if span.owner != SPAN_BLOCKS
            for page in span.free
            if page.is_perfect
        )

    @property
    def free_imperfect(self) -> int:
        return sum(
            1
            for span in self._spans
            if span.owner != SPAN_BLOCKS
            for page in span.free
            if not page.is_perfect
        )

    @property
    def free_real_pages(self) -> int:
        return self._free_pages

    def recount_free_pages(self) -> int:
        """The non-incremental sum (invariant checking)."""
        return sum(len(span.free) for span in self._spans)

    def available_pages(self) -> int:
        """Free pages across all spans (parked pages excluded)."""
        return self.free_real_pages

    def free_spans(self) -> int:
        return sum(1 for span in self._spans if span.owner == SPAN_FREE and span.fully_free)

    @property
    def parked_pages(self) -> int:
        """Real pages currently parked as borrow penalties."""
        return len(self._parked)

    def los_dead_weight_pages(self) -> int:
        """Imperfect pages stranded inside LOS-claimed spans.

        The paper's clustering-threshold cost made visible: these pages
        are neither usable by the LOS nor available to the block space.
        """
        return sum(
            1
            for span in self._spans
            if span.owner == SPAN_LOS
            for page in span.free
            if not page.is_perfect
        )

    # ------------------------------------------------------------------
    # Relaxed path (Immix block space): whole spans
    # ------------------------------------------------------------------
    def take_block_pages(self) -> Optional[List[HeapPage]]:
        """Claim the lowest fully-free span for a 32 KB block."""
        i = self._claimable.find(1)
        if i < 0:
            return None
        span = self._spans[i]
        span.owner = SPAN_BLOCKS
        taken, span.free = span.free, []
        span.n_free_perfect = 0
        self._flag(span)
        self._free_pages -= len(taken)
        self.relaxed_pages_taken += len(taken)
        return taken

    # ------------------------------------------------------------------
    # Fussy path (LOS, overflow fallback): perfect pages
    # ------------------------------------------------------------------
    def fussy_page(self, allow_borrow: bool = True) -> HeapPage:
        """A perfect page: LOS-span inventory, a new span, or a borrow."""
        self.fussy_pages_taken += 1
        # 1. Perfect pages already inside LOS-claimed spans.
        i = self._los_perfect.find(1)
        if i < 0:
            # 2. Claim the lowest free span that holds a perfect page. Its
            #    imperfect pages become dead weight until the span empties.
            i = self._claimable_perfect.find(1)
            if i >= 0:
                self._spans[i].owner = SPAN_LOS
                self.los_span_claims += 1
        if i >= 0:
            span = self._spans[i]
            page = next(page for page in span.free if not page.failed_bits)
            span.free.remove(page)
            span.n_free_perfect -= 1
            self._flag(span)
            self._free_pages -= 1
            self.accountant.record_perfect_hit()
            return page
        # 3. Borrow DRAM, parking one real free page as the penalty.
        if not allow_borrow:
            self.fussy_pages_taken -= 1
            raise OutOfMemoryError("no perfect PCM page; collect before borrowing")
        parked = self._steal_parkable()
        if parked is None:
            self.fussy_pages_taken -= 1
            raise OutOfMemoryError("no free page left to charge the borrow penalty")
        self._parked.append(parked)
        self.accountant.borrow()
        page = HeapPage(self._next_borrow_index, borrowed=True)
        self._next_borrow_index -= 1
        self._borrowed_held.append(page)
        return page

    def _steal_parkable(self) -> Optional[HeapPage]:
        """Remove one free page to park: LOS dead weight first, then any."""
        for span in self._spans:
            if span.owner == SPAN_LOS:
                for page in span.free:
                    if page.failed_bits:
                        span.free.remove(page)
                        self._free_pages -= 1
                        return page
        for span in self._spans:
            if span.free:
                page = span.free[0]
                span.free.remove(page)
                if not page.failed_bits:
                    span.n_free_perfect -= 1
                self._free_pages -= 1
                if span.owner == SPAN_FREE:
                    span.owner = SPAN_LOS  # broken for parking
                self._flag(span)
                return page
        return None

    def fussy_pages(self, n: int, allow_borrow: bool = True) -> List[HeapPage]:
        """``n`` perfect pages, all-or-nothing."""
        taken: List[HeapPage] = []
        try:
            for _ in range(n):
                taken.append(self.fussy_page(allow_borrow=allow_borrow))
        except OutOfMemoryError:
            for page in taken:
                self.release(page)
            raise
        return taken

    # ------------------------------------------------------------------
    def release(self, page: HeapPage) -> None:
        """Return a page to its span (or end a DRAM loan).

        The paper's credit step happens here: a perfect page freed while
        debt is outstanding is surrendered to one borrowed placement
        (which silently becomes PCM-backed) instead of rejoining the
        free pool, retiring one page of debt and unparking its penalty
        page. Economically this is the paper's "relaxed allocator
        declines the perfect page" rule: the page goes to the fussy side
        the moment it would otherwise become allocatable.
        """
        if page.borrowed:
            self._borrowed_held.remove(page)
            self.accountant.return_borrowed()
            self._unpark()
            return
        if page.is_perfect and self.accountant.debt > 0 and self._borrowed_held:
            held = self._borrowed_held.pop()
            old_index = held.index
            held.index = page.index
            held.failed_bits = page.failed_bits
            held.fail_marks = page.fail_marks
            held.borrowed = False
            if self.on_page_reindexed is not None:
                self.on_page_reindexed(old_index, held.index)
            self._unpark()
            if self.accountant.offer_perfect_to_relaxed():
                raise AssertionError("accountant debt disagreed with borrowed_held")
            return
        span = self._span_of_page[page.index]
        span.free.append(page)
        if not page.failed_bits:
            span.n_free_perfect += 1
        self._free_pages += 1
        if span.fully_free:
            span.owner = SPAN_FREE
        self._flag(span)

    def release_all(self, pages: List[HeapPage]) -> None:
        for page in pages:
            self.release(page)

    def _unpark(self) -> None:
        if self._parked:
            page = self._parked.pop()
            if page.borrowed:
                return
            self.release(page)
