"""Tests for the PCM module behavioural model."""

import gc
import weakref

import pytest

from repro.errors import AddressError
from repro.hardware.failure_buffer import InterruptKind
from repro.hardware.geometry import Geometry
from repro.hardware.pcm import EnduranceModel, PcmModule
from tests.hardware.test_pcm_write_path import LEVELERS

REGION = Geometry().region


def make_module(**kwargs):
    interrupts = []
    module = PcmModule(
        size_bytes=kwargs.pop("size_bytes", 4 * REGION),
        on_interrupt=interrupts.append,
        **kwargs,
    )
    return module, interrupts


class TestEnduranceModel:
    def test_thresholds_are_stable_per_line(self):
        model = EnduranceModel(seed=7)
        assert model.first_failure_threshold(10) == model.first_failure_threshold(10)

    def test_thresholds_vary_across_lines(self):
        model = EnduranceModel(mean_writes=1000, cv=0.3, seed=7)
        thresholds = {model.first_failure_threshold(i) for i in range(50)}
        assert len(thresholds) > 20

    def test_zero_cv_gives_mean(self):
        model = EnduranceModel(mean_writes=500, cv=0.0)
        assert model.first_failure_threshold(3) == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            EnduranceModel(mean_writes=0)
        with pytest.raises(ValueError):
            EnduranceModel(cv=-1)
        with pytest.raises(ValueError):
            EnduranceModel(followup_fraction=0)


class TestStaticOperation:
    def test_size_must_be_region_multiple(self):
        with pytest.raises(AddressError):
            PcmModule(size_bytes=REGION + 64)

    def test_writes_succeed_without_endurance(self):
        module, interrupts = make_module()
        assert module.write(0, 64)
        assert module.write(REGION, 4096)
        assert interrupts == []
        assert module.failed_logical_lines() == set()

    def test_out_of_range_access_rejected(self):
        module, _ = make_module()
        with pytest.raises(AddressError):
            module.write(module.size_bytes, 1)
        with pytest.raises(AddressError):
            module.read(-1, 1)

    def test_inject_static_failures(self):
        module, _ = make_module()
        module.inject_static_failures([0, 5, 9])
        assert module.failed_logical_lines() == {0, 5, 9}

    def test_inject_rejects_out_of_range_line(self):
        module, _ = make_module()
        with pytest.raises(AddressError):
            module.inject_static_failures([module.n_lines])

    def test_rejected_batch_leaves_module_untouched(self):
        module = PcmModule(size_bytes=8192, geometry=Geometry())
        with pytest.raises(AddressError, match="line 1000000 "):
            module.inject_static_failures([0, 5, 10**6])
        assert module.failed_logical_lines() == set()
        assert module.failed_fraction() == 0.0

    def test_write_to_failed_line_is_parked_not_lost(self):
        module, interrupts = make_module()
        module.inject_static_failures([1])
        assert not module.write(64, 8, data="payload")
        assert module.read(64) == "payload"
        assert InterruptKind.WRITE_FAILURE in interrupts


class TestWearOut:
    def test_line_fails_after_ecc_exhaustion(self):
        module, interrupts = make_module(
            endurance=EnduranceModel(mean_writes=10, cv=0.0, followup_fraction=0.1),
            ecc_entries_per_line=2,
        )
        failed = False
        for _ in range(100):
            if not module.write(0, 1, data="x"):
                failed = True
                break
        assert failed
        assert 0 in module.failed_logical_lines()
        assert module.take_pending_failures() == [(0, 0)]
        assert module.take_pending_failures() == []
        assert InterruptKind.WRITE_FAILURE in interrupts

    def test_zero_ecc_fails_at_first_stuck_bit(self):
        module, _ = make_module(
            endurance=EnduranceModel(mean_writes=5, cv=0.0),
            ecc_entries_per_line=0,
        )
        results = [module.write(0, 1) for _ in range(5)]
        assert results == [True] * 4 + [False]

    def test_wear_counts_tracked(self):
        module, _ = make_module(endurance=EnduranceModel(mean_writes=10_000, cv=0.0))
        for _ in range(7):
            module.write(0, 1)
        assert module.line_write_count(0) == 7
        assert module.write_count_histogram() == [7]

    def test_failed_fraction(self):
        module, _ = make_module()
        module.inject_static_failures(range(module.n_lines // 2))
        assert module.failed_fraction() == pytest.approx(0.5)


class TestClusteredDynamicFailures:
    def test_failure_reported_at_region_edge(self):
        module, _ = make_module(
            endurance=EnduranceModel(mean_writes=3, cv=0.0),
            ecc_entries_per_line=0,
            clustering_enabled=True,
        )
        # Wear out logical line 10 (region 0, even, clusters to start).
        target = 10 * 64
        for _ in range(3):
            module.write(target, 1)
        # Reported at the region edge; the write that failed was at
        # logical line 10.
        assert module.take_pending_failures() == [(0, 10)]
        assert 0 in module.failed_logical_lines()
        # Logical line 10 still works: the swap gave it a healthy line.
        assert 10 not in module.failed_logical_lines()

    def test_multiple_failures_stay_contiguous(self):
        module, _ = make_module(
            endurance=EnduranceModel(mean_writes=2, cv=0.0),
            ecc_entries_per_line=0,
            clustering_enabled=True,
        )
        geometry = module.geometry
        for line in (20, 30, 40):
            span = list(module.clustering.map_for_region(0).working_span())
            assert line in span
            for _ in range(2):  # exactly the endurance threshold
                module.write(geometry.line_address(line), 1)
        failed = module.failed_logical_lines()
        assert failed == {0, 1, 2}


class Owner:
    """Holds a module and takes its interrupts, as the OS does."""

    def __init__(self, module):
        self.module = module
        self.interrupts = []
        module.connect_interrupt(self.on_interrupt)

    def on_interrupt(self, kind):
        self.interrupts.append(kind)


def worn_module(leveler, clustering):
    """A module that has failed lines, parked writes and, with
    clustering, installed redirection maps."""
    module = PcmModule(
        size_bytes=4 * REGION,
        endurance=EnduranceModel(mean_writes=3, cv=0.0),
        ecc_entries_per_line=0,
        clustering_enabled=clustering,
        wear_leveler=LEVELERS[leveler](),
        failure_buffer_capacity=4096,
    )
    module.inject_static_failures([200])
    return module


def wear(module):
    for line in range(0, 64, 4):
        for _ in range(8):
            module.write(line * 64, 8, data=line)
    module.write(200 * 64, 8, data="parked")


class TestAcyclicModule:
    """A module refers to nothing that refers back to it: once its
    owner unwires the interrupt line, reference counting frees it."""

    @pytest.fixture(autouse=True)
    def no_cyclic_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        yield
        if was_enabled:
            gc.enable()

    @pytest.mark.parametrize("leveler", sorted(LEVELERS))
    @pytest.mark.parametrize("clustering", [False, True])
    def test_unwired_module_is_freed_by_its_last_reference(self, leveler, clustering):
        module = worn_module(leveler, clustering)
        owner = Owner(module)
        wear(module)
        assert module.failed_line_count() > 1
        assert InterruptKind.WRITE_FAILURE in owner.interrupts
        if clustering:
            assert module.clustering.installed_map_count()
        module.connect_interrupt(None)
        freed = weakref.ref(module)
        del module, owner
        assert freed() is None

    def test_a_wired_owner_keeps_the_module_until_unwired(self):
        # The owner's handler is the one cycle; without the unwiring only
        # the cyclic collector frees the pair.
        module = worn_module("start-gap", True)
        owner = Owner(module)
        wear(module)
        freed = weakref.ref(module)
        del module, owner
        assert freed() is not None
        gc.collect()
        assert freed() is None

    def test_unwiring_stops_delivery_to_the_old_handler(self):
        module = worn_module("none", False)
        owner = Owner(module)
        assert not module.write(200 * 64, 8)
        delivered = len(owner.interrupts)
        assert delivered
        module.connect_interrupt(None)
        assert not module.write(200 * 64, 8, data="still parked")
        assert len(owner.interrupts) == delivered
        assert module.read(200 * 64) == "still parked"
