"""Tests for workload specifications."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.units import KiB, MiB
from repro.workloads.dacapo import DACAPO
from repro.workloads.spec import SizeBand, WorkloadSpec

from .oracles import sample_size_reference


def make_spec(**overrides):
    defaults = dict(
        name="test",
        description="test workload",
        total_alloc_bytes=1 * MiB,
        immortal_bytes=64 * KiB,
        short_lifetime_bytes=32 * KiB,
        long_lifetime_bytes=256 * KiB,
        long_fraction=0.1,
        size_weights=(0.9, 0.08, 0.02),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestSizeBand:
    def test_sample_within_band(self):
        band = SizeBand(16, 128)
        rng = random.Random(0)
        for _ in range(100):
            assert 16 <= band.sample(rng) <= 128

    def test_invalid_band_rejected(self):
        with pytest.raises(ConfigError):
            SizeBand(0, 10)
        with pytest.raises(ConfigError):
            SizeBand(20, 10)


class TestValidation:
    def test_negative_totals_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(total_alloc_bytes=0)
        with pytest.raises(ConfigError):
            make_spec(immortal_bytes=-1)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(long_fraction=1.5)
        with pytest.raises(ConfigError):
            make_spec(pinned_fraction=-0.1)

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(size_weights=(1.0, 0.0))
        with pytest.raises(ConfigError):
            make_spec(size_weights=(0.0, 0.0, 0.0))
        with pytest.raises(ConfigError):
            make_spec(size_weights=(-1.0, 1.0, 1.0))

    def test_cohort_size_positive(self):
        with pytest.raises(ConfigError):
            make_spec(cohort_size=0)


class TestSampling:
    def test_size_mixture_respects_bands(self):
        spec = make_spec()
        rng = random.Random(1)
        sizes = [spec.sample_size(rng) for _ in range(2000)]
        assert min(sizes) >= spec.small.lo
        assert max(sizes) <= spec.large.hi
        # Large objects are rare by count but present.
        large = [s for s in sizes if s >= spec.large.lo]
        assert 0 < len(large) < len(sizes) * 0.1

    def test_lifetimes_positive(self):
        spec = make_spec()
        rng = random.Random(2)
        assert all(spec.sample_lifetime(rng) >= 1 for _ in range(500))

    def test_expected_live_bytes_analytical(self):
        spec = make_spec(long_fraction=0.0)
        assert spec.expected_churn_live_bytes() == spec.short_lifetime_bytes
        spec = make_spec(long_fraction=1.0)
        assert spec.expected_churn_live_bytes() == spec.long_lifetime_bytes

    def test_mean_object_bytes_between_extremes(self):
        spec = make_spec()
        mean = spec.mean_object_bytes()
        assert spec.small.lo < mean < spec.large.hi

    @settings(max_examples=20)
    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_scaled_preserves_live_set(self, factor):
        spec = make_spec()
        scaled = spec.scaled(factor)
        assert scaled.expected_live_bytes() == spec.expected_live_bytes()
        assert scaled.total_alloc_bytes <= spec.total_alloc_bytes or factor >= 1.0

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            make_spec().scaled(0)

    def test_describe(self):
        assert "test" in make_spec().describe()


class TestDrawMatchesRandint:
    """The raw-``getrandbits`` draw is pinned to CPython's ``randint``.

    Every golden result depends on the driver drawing the same sizes as
    ``Random.randint`` did. If an interpreter ever changes ``randrange``
    this suite fails first and names the cause.
    """

    SEEDS = range(10)
    DRAWS = 100_000

    @pytest.mark.parametrize("spec", DACAPO, ids=lambda spec: spec.name)
    def test_sizes_and_lifetimes_match_oracle(self, spec):
        for seed in self.SEEDS:
            fast_rng = random.Random(seed)
            oracle_rng = random.Random(seed)
            random_, getrandbits = fast_rng.random, fast_rng.getrandbits
            fast = [spec.draw_size(random_, getrandbits) for _ in range(self.DRAWS)]
            oracle = [
                sample_size_reference(spec, oracle_rng) for _ in range(self.DRAWS)
            ]
            assert fast == oracle, f"{spec.name} seed {seed}"
            # The generators are still in step: lifetimes, cohort heads
            # and the spec-level wrappers draw what they always drew.
            for _ in range(100):
                assert spec.sample_lifetime(fast_rng) == spec.sample_lifetime(
                    oracle_rng
                )
                assert spec.small.sample(fast_rng) == oracle_rng.randint(
                    spec.small.lo, spec.small.hi
                )
                assert spec.sample_size(fast_rng) == sample_size_reference(
                    spec, oracle_rng
                )

    @pytest.mark.parametrize("band", [SizeBand(1, 1), SizeBand(7, 8), SizeBand(16, 143)])
    def test_band_edges_match_randint(self, band):
        # Width 1 still draws one bit per try; width 128 is a power of
        # two, so each try draws 8 bits and half of them are redrawn.
        fast_rng, oracle_rng = random.Random(3), random.Random(3)
        for _ in range(500):
            assert band.sample(fast_rng) == oracle_rng.randint(band.lo, band.hi)
