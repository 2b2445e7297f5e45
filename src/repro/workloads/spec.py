"""Workload specifications (paper section 5, benchmarks).

The paper evaluates DaCapo Java benchmarks. Java itself is out of reach
here, so each benchmark is modelled as a *workload specification*: an
allocation-size mix, a steady live-set target, cohort-based object
lifetimes following the weak generational hypothesis, and optional
pinning/mutation behaviour. The per-benchmark parameters are chosen to
match the paper's narrative (see :mod:`repro.workloads.dacapo`).

Lifetimes are expressed in *allocated bytes* (the standard GC notion of
time), so the trace a spec generates is completely independent of which
collector or failure configuration runs it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Tuple

from ..errors import ConfigError
from ..units import KiB, MiB


def draw_uniform(getrandbits: Callable[[int], int], band: Tuple[int, int, int]) -> int:
    """``Random.randint(lo, hi)`` over a band prepared as ``(lo, width,
    width.bit_length())``, bit-identical.

    On CPython 3.9-3.12, ``randint`` draws ``getrandbits(bits)`` until
    the result is below ``width`` and adds ``lo``; this is that loop
    without the four frames of argument checking around it.
    """
    lo, width, bits = band
    r = getrandbits(bits)
    while r >= width:
        r = getrandbits(bits)
    return lo + r


@dataclass(frozen=True)
class SizeBand:
    """Uniformly sampled payload-size range in bytes."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 < self.lo <= self.hi:
            raise ConfigError(f"invalid size band [{self.lo}, {self.hi}]")

    @property
    def draw_band(self) -> Tuple[int, int, int]:
        width = self.hi - self.lo + 1
        return (self.lo, width, width.bit_length())

    def sample(self, rng: random.Random) -> int:
        return draw_uniform(rng.getrandbits, self.draw_band)


#: Default bands relative to the paper's geometry: small fits one
#: 256 B Immix line, medium spans lines within a block, large exceeds
#: the 8 KB LOS threshold.
SMALL = SizeBand(16, 120)
MEDIUM = SizeBand(300, 2 * KiB)
LARGE = SizeBand(9 * KiB, 40 * KiB)


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete synthetic benchmark definition."""

    name: str
    description: str
    #: Total allocation volume for one iteration.
    total_alloc_bytes: int
    #: Bytes of immortal data built at startup (never dies).
    immortal_bytes: int
    #: Mean lifetime (allocated bytes) of short-lived cohorts.
    short_lifetime_bytes: int
    #: Mean lifetime of long-lived cohorts.
    long_lifetime_bytes: int
    #: Fraction of cohorts that are long-lived.
    long_fraction: float
    #: Allocation-count weights for (small, medium, large) objects.
    size_weights: Tuple[float, float, float]
    #: Objects per cohort (one shared death time per cohort).
    cohort_size: int = 24
    #: Fraction of objects pinned at allocation (C# interop-style).
    pinned_fraction: float = 0.0
    #: Mean application stores per object (drives wear experiments).
    mutations_per_object: float = 0.0
    small: SizeBand = SMALL
    medium: SizeBand = MEDIUM
    large: SizeBand = LARGE

    def __post_init__(self) -> None:
        if self.total_alloc_bytes <= 0:
            raise ConfigError("total_alloc_bytes must be positive")
        if self.immortal_bytes < 0:
            raise ConfigError("immortal_bytes must be >= 0")
        if not 0.0 <= self.long_fraction <= 1.0:
            raise ConfigError("long_fraction outside [0, 1]")
        if len(self.size_weights) != 3 or any(w < 0 for w in self.size_weights):
            raise ConfigError("size_weights must be three non-negative numbers")
        if sum(self.size_weights) == 0:
            raise ConfigError("size_weights must not all be zero")
        if self.cohort_size < 1:
            raise ConfigError("cohort_size must be >= 1")
        if not 0.0 <= self.pinned_fraction <= 1.0:
            raise ConfigError("pinned_fraction outside [0, 1]")
        # The draw constants, computed once with the band pick's float
        # sums: cut points, then the small, medium and large bands.
        small_w, medium_w, large_w = self.size_weights
        plan = (small_w, small_w + medium_w, small_w + medium_w + large_w)
        plan += (self.small.draw_band, self.medium.draw_band, self.large.draw_band)
        object.__setattr__(self, "draw_plan", plan)

    # ------------------------------------------------------------------
    def draw_size(
        self, random_: Callable[[], float], getrandbits: Callable[[int], int]
    ) -> int:
        """One payload size from the mixture, given the generator's
        bound ``random`` and ``getrandbits``."""
        small_cut, medium_cut, total, small, medium, large = self.draw_plan
        pick = random_() * total
        if pick < small_cut:
            return draw_uniform(getrandbits, small)
        if pick < medium_cut:
            return draw_uniform(getrandbits, medium)
        return draw_uniform(getrandbits, large)

    def sample_size(self, rng: random.Random) -> int:
        """Draw one payload size from the mixture."""
        return self.draw_size(rng.random, rng.getrandbits)

    def sample_lifetime(self, rng: random.Random) -> int:
        """Draw one cohort lifetime in allocated bytes (exponential)."""
        if rng.random() < self.long_fraction:
            mean = self.long_lifetime_bytes
        else:
            mean = self.short_lifetime_bytes
        return max(1, int(rng.expovariate(1.0 / mean)))

    def expected_churn_live_bytes(self) -> float:
        """Steady-state live bytes from churn alone (analytical).

        With allocation as the clock, steady-state live volume equals
        the mean lifetime in allocated bytes.
        """
        return (
            (1.0 - self.long_fraction) * self.short_lifetime_bytes
            + self.long_fraction * self.long_lifetime_bytes
        )

    def expected_live_bytes(self) -> float:
        return self.immortal_bytes + self.expected_churn_live_bytes()

    def mean_object_bytes(self) -> float:
        """Expected payload size (useful for sizing runs)."""
        small_w, medium_w, large_w = self.size_weights
        total = small_w + medium_w + large_w
        mean = lambda band: (band.lo + band.hi) / 2  # noqa: E731
        return (
            small_w * mean(self.small)
            + medium_w * mean(self.medium)
            + large_w * mean(self.large)
        ) / total

    def approx_object_count(self) -> int:
        return int(self.total_alloc_bytes / max(1.0, self.mean_object_bytes()))

    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "WorkloadSpec":
        """A cheaper copy: same live set and mix, less total allocation.

        Used by quick benchmark modes; the live set, sizes, and
        lifetimes are untouched, so memory-pressure behaviour per GC is
        preserved — there are simply fewer collections.
        """
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        return WorkloadSpec(
            name=self.name,
            description=self.description,
            total_alloc_bytes=max(256 * KiB, int(self.total_alloc_bytes * factor)),
            immortal_bytes=self.immortal_bytes,
            short_lifetime_bytes=self.short_lifetime_bytes,
            long_lifetime_bytes=self.long_lifetime_bytes,
            long_fraction=self.long_fraction,
            size_weights=self.size_weights,
            cohort_size=self.cohort_size,
            pinned_fraction=self.pinned_fraction,
            mutations_per_object=self.mutations_per_object,
            small=self.small,
            medium=self.medium,
            large=self.large,
        )

    def describe(self) -> str:
        return (
            f"{self.name}: {self.total_alloc_bytes / MiB:.1f} MB allocated, "
            f"~{self.expected_live_bytes() / KiB:.0f} KB live, "
            f"weights s/m/l = {self.size_weights}"
        )
