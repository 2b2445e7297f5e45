"""Behavioural model of a PCM memory module (paper sections 2.2, 3.1).

The module owns:

* per-line wear state — each line has a sampled endurance threshold
  (process variation) after which writes start producing stuck cells;
* per-line ECC with a finite correction budget (:mod:`.ecc`);
* the failure buffer that parks failed writes and interrupts the
  processor (:mod:`.failure_buffer`);
* optional failure-clustering hardware (:mod:`.clustering`);
* optional wear leveling (:mod:`.wear_leveling`).

Addresses given to :meth:`PcmModule.write`/:meth:`PcmModule.read` are
*logical* module addresses; wear leveling and clustering translate them
to physical lines internally, exactly like the real datapath would.

Endurance is deliberately scaled down (thousands of writes rather than
1e8) so that lifetime experiments finish in seconds; the *relative*
behaviour — variation between cells, the failure cascade once ECC is
exhausted — is what the experiments depend on.
"""

from __future__ import annotations

import random
import sys
from math import cos as _cos
from math import log as _log
from math import pi as _pi
from math import sqrt as _sqrt
from typing import Callable, Dict, Iterable, List, Optional, Set

from _random import Random as _CRandom

import numpy as np

from ..errors import AddressError
from .clustering import ClusteringController
from .ecc import EccDomain
from .failure_buffer import FailureBuffer, InterruptKind
from .geometry import Geometry, as_line_indices
from .wear_leveling import NoWearLeveling, WearLeveler

_TWOPI = 2.0 * _pi
if sys.version_info >= (3, 10):
    _seeded_generator = _CRandom
else:  # 3.9's C constructor seeds from its argument tuple, not the seed
    _seeded_generator = random.Random


def seeded_gauss(seed: int, mu: float, sigma: float) -> float:
    """``random.Random(seed).gauss(mu, sigma)``, for a fraction of the cost.

    CPython's gauss arithmetic, inlined over the C generator: the same
    float without the Python-level ``Random.__init__``/``seed`` and
    ``gauss`` frames (``tests/hardware/test_pcm_write_path.py`` pins the
    equality).
    """
    uniform = _seeded_generator(seed).random
    x2pi = uniform() * _TWOPI
    g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
    return mu + _cos(x2pi) * g2rad * sigma


class EnduranceModel:
    """Samples per-line write-endurance thresholds.

    ``mean_writes`` is the average number of writes a line tolerates
    before its first cell sticks; ``cv`` is the coefficient of variation
    modelling process variation. After the first stuck cell, additional
    cells stick every ``mean_writes * followup_fraction`` writes, so a
    worn line degrades progressively through its ECC budget.
    """

    def __init__(
        self,
        mean_writes: float = 10_000.0,
        cv: float = 0.25,
        followup_fraction: float = 0.02,
        seed: int = 0,
    ) -> None:
        if mean_writes <= 0:
            raise ValueError("mean_writes must be positive")
        if cv < 0:
            raise ValueError("cv must be >= 0")
        if followup_fraction <= 0:
            raise ValueError("followup_fraction must be positive")
        self.mean_writes = mean_writes
        self.cv = cv
        self.followup_fraction = followup_fraction
        self._seed = seed

    def first_failure_threshold(self, line_index: int) -> int:
        """Writes until the line's first stuck cell: a pure draw from the
        line's own generator, seeded ``(seed << 32) ^ line_index``."""
        mean = self.mean_writes
        sampled = seeded_gauss((self._seed << 32) ^ line_index, mean, self.cv * mean)
        return max(1, int(sampled))

    def followup_interval(self) -> int:
        """Writes between successive stuck cells on a worn line."""
        return max(1, int(self.mean_writes * self.followup_fraction))


class PcmModule:
    """A PCM module: an array of lines with wear, ECC, and a failure buffer.

    Parameters
    ----------
    size_bytes:
        Module capacity. Must be a whole number of clustering regions.
    geometry:
        Shared :class:`Geometry`.
    endurance:
        Endurance model; None disables wear (lines never fail on write),
        which is what static-failure experiments want.
    clustering_enabled:
        Instantiate the redirection-map hardware.
    wear_leveler:
        A :class:`WearLeveler`; defaults to none (the paper's stance).
    on_interrupt:
        Callback invoked with :class:`InterruptKind` values — this is the
        wire to the OS interrupt handler.
    """

    def __init__(
        self,
        size_bytes: int,
        geometry: Optional[Geometry] = None,
        endurance: Optional[EnduranceModel] = None,
        ecc_entries_per_line: int = 6,
        clustering_enabled: bool = False,
        wear_leveler: Optional[WearLeveler] = None,
        failure_buffer_capacity: int = 32,
        on_interrupt: Optional[Callable[[InterruptKind], None]] = None,
        seed: int = 0,
    ) -> None:
        self.geometry = geometry or Geometry()
        if size_bytes <= 0 or size_bytes % self.geometry.region:
            raise AddressError(
                f"module size {size_bytes} must be a positive multiple of the "
                f"region size {self.geometry.region}"
            )
        self.size_bytes = size_bytes
        self.endurance = endurance
        self.ecc = EccDomain(ecc_entries_per_line)
        self.failure_buffer = FailureBuffer(
            capacity=failure_buffer_capacity, interrupt=on_interrupt
        )
        self.clustering = ClusteringController(self.geometry) if clustering_enabled else None
        self.wear_leveler = wear_leveler or NoWearLeveling()
        self._rng = random.Random(seed)
        # Per-line wear state, indexed by physical line over the
        # leveler's physical span (None without an endurance model):
        # the write count, and the count at which the line's next wear
        # event fires. That slot starts at 0, so a line's first write
        # draws its threshold; it then holds the first-failure
        # threshold, and after each event the count of the next one.
        span = self.wear_leveler.physical_lines(self.n_lines)
        if endurance is None:
            self._counts: Optional[List[int]] = None
            self._next_event: Optional[List[int]] = None
        else:
            self._counts = [0] * span
            self._next_event = [0] * span
        #: Physical lines in the order of their first write.
        self._touched: List[int] = []
        #: One byte per physical line: 1 once its ECC budget is exhausted.
        self._failed_physical = bytearray(span)
        #: One byte per logical line: 1 for lines software must avoid
        #: (post-clustering view), with their count kept alongside.
        self._failed_logical = bytearray(self.n_lines)
        self._failed_count = 0
        #: Failures not yet acknowledged by the OS, as
        #: (reported_line, original_line) pairs: with clustering the
        #: line *reported* failed is the remapped boundary slot, while
        #: the parked write data sits under the *original* address.
        self._pending_failures: List[tuple] = []
        self.total_writes = 0
        self.total_reads = 0
        #: Optional observability hook; see :mod:`repro.obs.trace`.
        self.tracer = None
        self._bind()

    def _bind(self) -> None:
        """Bind what every store reads, once, from the wiring.

        Nothing bound here refers back to the module: the leveler's own
        ``write_line``, the clustering controller's map dict and plain
        numbers. With no leveler the leveler is not called at all, and
        without clustering no map is looked up.
        """
        leveler = self.wear_leveler
        self._line_bytes = self.geometry.pcm_line
        self._level = None if type(leveler) is NoWearLeveling else leveler.write_line
        self._region_maps = None if self.clustering is None else self.clustering._maps
        self._region_lines = self.geometry.lines_per_region
        endurance = self.endurance
        if endurance is not None:
            # EnduranceModel.first_failure_threshold's draw, unrolled.
            mean = endurance.mean_writes
            self._threshold_key = endurance._seed << 32
            self._threshold_mean = mean
            self._threshold_sigma = endurance.cv * mean
            self._followup = endurance.followup_interval()

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to the module and its sub-components."""
        self.tracer = tracer
        self.failure_buffer.tracer = tracer
        if self.clustering is not None:
            self.clustering.tracer = tracer

    # ------------------------------------------------------------------
    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.geometry.pcm_line

    def connect_interrupt(
        self, handler: Optional[Callable[[InterruptKind], None]]
    ) -> None:
        """Wire the interrupt line to ``handler``; None unwires it (the
        silent sink), so the module no longer holds its last owner.

        The failure buffer calls the handler itself: the module holds no
        reference to its own methods, so once unwired it is freed by
        reference counting alone.
        """
        self.failure_buffer.connect(handler)

    def _check_range(self, address: int, size: int) -> None:
        if address < 0 or size <= 0 or address + size > self.size_bytes:
            raise self._range_error(address, size)

    def _range_error(self, address: int, size: int) -> AddressError:
        return AddressError(
            f"access [{address:#x}, +{size}) outside module of {self.size_bytes} bytes"
        )

    # ------------------------------------------------------------------
    # Static failure injection (used by the fault-injection harness)
    # ------------------------------------------------------------------
    def inject_static_failures(self, logical_lines: Iterable[int]) -> None:
        """Pre-fail lines, modelling a module that aged before this run.

        The lines are recorded directly in the logical view: the fault
        injector already applied any clustering transform it wanted.
        The whole batch is validated before anything is recorded, so a
        rejected batch leaves the module untouched. An int index array
        (:meth:`FailureMap.failed_indices`) is taken as is.
        """
        lines = as_line_indices(logical_lines)
        if not lines.size:
            return
        lowest, highest = int(lines.min()), int(lines.max())
        if lowest < 0 or highest >= self.n_lines:
            line = lowest if lowest < 0 else highest
            raise AddressError(f"line {line} outside module")
        logical = np.frombuffer(self._failed_logical, dtype=np.uint8)
        logical[lines] = 1
        np.frombuffer(self._failed_physical, dtype=np.uint8)[lines] = 1
        self._failed_count = int(np.count_nonzero(logical))

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def read(self, address: int, size: int = 1) -> Optional[object]:
        """Read; returns forwarded failure-buffer data when present."""
        self._check_range(address, size)
        self.total_reads += 1
        line_address = self.geometry.line_address(self.geometry.line_index(address))
        return self.failure_buffer.forward(line_address)

    def write(self, address: int, size: int = 1, data: object = None) -> bool:
        """Write ``size`` bytes at ``address``; returns True on success.

        A return of False means at least one covered line failed during
        this write: its data is parked in the failure buffer and the OS
        has been interrupted.

        Each covered line is walked here: the leveler's ``write_line``
        (when there is one) gives its leveled line, the region's
        redirection map (when clustering has installed one) its physical
        line, and the line's write count is compared with its next wear
        event. Only a wear event leaves this loop for a call.
        """
        if address < 0 or size <= 0 or address + size > self.size_bytes:
            raise self._range_error(address, size)
        self.total_writes += 1
        line_bytes = self._line_bytes
        line = address // line_bytes
        last = (address + size - 1) // line_bytes
        failed = self._failed_logical
        level = self._level
        counts = self._counts
        ok = True
        while True:
            if failed[line]:
                # Software invariantly never writes failed lines; if it
                # does the write is absorbed by the failure buffer like
                # any failing write so no data is ever silently lost.
                self.failure_buffer.insert(line * line_bytes, data)
                ok = False
            else:
                physical = line if level is None else level(line)
                if counts is not None:
                    maps = self._region_maps
                    if maps is not None:
                        region_lines = self._region_lines
                        rmap = maps.get(physical // region_lines)
                        if rmap is not None:
                            offset = physical % region_lines
                            physical += rmap.logical_to_physical[offset] - offset
                    count = counts[physical] + 1
                    counts[physical] = count
                    if count >= self._next_event[physical] and not self._wear_event(
                        line, physical, count, data
                    ):
                        ok = False
            if line == last:
                return ok
            line += 1

    def _wear_event(
        self, logical_line: int, physical: int, count: int, data: object
    ) -> bool:
        """The slow path: a line's first write, or a write that sticks a cell.

        Cells stick at the threshold ``T`` and every follow-up interval
        after it (``T``, ``T + i``, ``T + 2i``, ...).
        """
        next_event = self._next_event
        if not next_event[physical]:
            sampled = seeded_gauss(
                self._threshold_key ^ physical,
                self._threshold_mean,
                self._threshold_sigma,
            )
            threshold = max(1, int(sampled))
            next_event[physical] = threshold
            self._touched.append(physical)
            if count < threshold:
                return True
        next_event[physical] = count + self._followup
        # A new cell sticks on this write.
        bit = self._rng.randrange(self.geometry.pcm_line * 8)
        if self.ecc.record_stuck_bit(physical, bit):
            return True
        return not self._fail_line(logical_line, physical, data)

    def _fail_line(self, logical_line: int, physical_line: int, data: object) -> bool:
        """Record a permanent line failure; returns True (it failed)."""
        self._failed_physical[physical_line] = 1
        if self.clustering is not None:
            reported = self.clustering.record_failure(logical_line)
        else:
            reported = logical_line
        if not self._failed_logical[reported]:
            # A statically failed zone installs no redirection map, so a
            # clustered dynamic failure can report an already failed line.
            self._failed_logical[reported] = 1
            self._failed_count += 1
        self._pending_failures.append((reported, logical_line))
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "pcm.line_failure",
                cat="hardware",
                args={
                    "logical_line": logical_line,
                    "physical_line": physical_line,
                    "reported_line": reported,
                },
            )
        self._park_failed_write(logical_line, data)
        return True

    def _park_failed_write(self, logical_line: int, data: object) -> None:
        self.failure_buffer.insert(self.geometry.line_address(logical_line), data)

    # ------------------------------------------------------------------
    # OS-facing views
    # ------------------------------------------------------------------
    def failed_logical_indices(self) -> np.ndarray:
        """Lines software must avoid, in the logical (clustered) view,
        as an ascending int64 index array."""
        return np.flatnonzero(np.frombuffer(self._failed_logical, dtype=np.uint8))

    def failed_physical_indices(self) -> np.ndarray:
        """Physical lines whose ECC budget is exhausted (or statically
        failed), as an ascending int64 index array."""
        return np.flatnonzero(np.frombuffer(self._failed_physical, dtype=np.uint8))

    def failed_logical_lines(self) -> Set[int]:
        """A set view of :meth:`failed_logical_indices`, for checkers."""
        return set(self.failed_logical_indices().tolist())

    def failed_line_count(self) -> int:
        """How many logical lines are failed."""
        return self._failed_count

    def take_pending_failures(self) -> List[tuple]:
        """Failures since the last call, as (reported, original) line
        index pairs (OS drain)."""
        pending, self._pending_failures = self._pending_failures, []
        return pending

    def line_write_count(self, physical_line: int) -> int:
        counts = self._counts
        if counts is None or not 0 <= physical_line < len(counts):
            return 0
        return counts[physical_line]

    def write_counts(self) -> Dict[int, int]:
        """Physical line -> write count for every line ever written, in
        first-write order."""
        counts = self._counts
        return {line: counts[line] for line in self._touched}

    def write_count_histogram(self) -> List[int]:
        """Write counts for every physical line ever written, in
        first-write order (spread statistics sum them in this order)."""
        counts = self._counts
        return [counts[line] for line in self._touched]

    def failed_fraction(self) -> float:
        return self._failed_count / self.n_lines
