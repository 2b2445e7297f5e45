"""Reference implementation of the PCM write path, for tests only.

:class:`ReferencePcmModule` is :class:`~repro.hardware.pcm.PcmModule`
with the write path it had before per-line next-event counters: a
``range`` of covered lines per store, the leveler's ``on_write`` and
``translate`` and the clustering controller's ``translate_line``
called on every line, a dict of write counts, a dict of cached
thresholds, and the stuck-cell rule
``count >= threshold and (count - threshold) % interval == 0`` evaluated
on every write. Thresholds come from ``random.Random(...).gauss``.

The property suite in ``tests/hardware/test_pcm_write_path.py`` drives
both modules with the same write streams, and
``benchmarks/test_kernels.py`` times one against the other. Nothing in
``src/`` calls this module.
"""

import random
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.hardware.clustering import cluster_failure_mask
from repro.hardware.geometry import Geometry
from repro.hardware.pcm import EnduranceModel, PcmModule


def clustered_set(
    failed_lines: Iterable[int], geometry: Geometry, include_metadata: bool = False
) -> Set[int]:
    """:func:`cluster_failure_mask` over a set of lines: the mask spans
    whole regions up to the highest line, so nothing is clamped."""
    lines = sorted(failed_lines)
    per_region = geometry.lines_per_region
    n_lines = (lines[-1] // per_region + 1) * per_region if lines else 0
    mask = np.zeros(n_lines, dtype=np.bool_)
    mask[lines] = True
    logical = cluster_failure_mask(mask, geometry, include_metadata)
    return set(np.flatnonzero(logical).tolist())


def threshold_reference(model: EnduranceModel, line_index: int) -> int:
    """A line's first-failure threshold, drawn with ``Random.gauss``."""
    rng = random.Random((model._seed << 32) ^ line_index)
    sampled = rng.gauss(model.mean_writes, model.cv * model.mean_writes)
    return max(1, int(sampled))


class ReferencePcmModule(PcmModule):
    """A PCM module whose writes take the per-line dict path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._write_counts: Dict[int, int] = {}
        self._thresholds: Dict[int, int] = {}

    def _threshold(self, physical: int) -> int:
        threshold = self._thresholds.get(physical)
        if threshold is None:
            threshold = threshold_reference(self.endurance, physical)
            self._thresholds[physical] = threshold
        return threshold

    def write(self, address: int, size: int = 1, data: object = None) -> bool:
        self._check_range(address, size)
        self.total_writes += 1
        first = self.geometry.line_index(address)
        last = self.geometry.line_index(address + size - 1)
        ok = True
        for logical_line in range(first, last + 1):
            if not self._write_line(logical_line, data):
                ok = False
        return ok

    def _write_line(self, logical_line: int, data: object) -> bool:
        if self._failed_logical[logical_line]:
            self._park_failed_write(logical_line, data)
            return False
        self.wear_leveler.on_write(logical_line)
        physical = self.wear_leveler.translate(logical_line)
        if self.clustering is not None:
            physical = self.clustering.translate_line(physical)
        if self.endurance is None:
            return True
        count = self._write_counts.get(physical, 0) + 1
        self._write_counts[physical] = count
        threshold = self._threshold(physical)
        if count < threshold:
            return True
        over = count - threshold
        if over % self.endurance.followup_interval():
            return True
        bit = self._rng.randrange(self.geometry.pcm_line * 8)
        if self.ecc.record_stuck_bit(physical, bit):
            return True
        return not self._fail_line(logical_line, physical, data)

    def line_write_count(self, physical_line: int) -> int:
        return self._write_counts.get(physical_line, 0)

    def write_counts(self) -> Dict[int, int]:
        return dict(self._write_counts)

    def write_count_histogram(self) -> List[int]:
        return list(self._write_counts.values())


def module_state(module: PcmModule, interrupts: Optional[list] = None) -> dict:
    """Everything a write stream can change, in comparable form."""
    span = module.wear_leveler.physical_lines(module.n_lines)
    return {
        "writes": module.total_writes,
        "failed_logical": module.failed_logical_indices().tolist(),
        "failed_physical": module.failed_physical_indices().tolist(),
        "pending": list(module._pending_failures),
        "histogram": module.write_count_histogram(),
        "write_counts": list(module.write_counts().items()),
        "line_write_counts": [module.line_write_count(line) for line in range(span)],
        "ecc": {
            line: (state.used, state.exhausted, sorted(state.stuck_bits))
            for line, state in module.ecc._lines.items()
        },
        "rng": module._rng.getstate(),
        "fbuf": [
            (entry.address, entry.data, entry.synthetic)
            for entry in module.failure_buffer.pending()
        ],
        "fbuf_inserted": module.failure_buffer.total_inserted,
        "leveler": vars(module.wear_leveler),
        "clustering": None
        if module.clustering is None
        else {
            region: (rmap.logical_to_physical, rmap.failed_count)
            for region, rmap in module.clustering._maps.items()
        },
        "interrupts": interrupts,
    }
