"""Tests for the memory-lifetime experiments."""

import dataclasses
import gc
import weakref

import pytest

from repro.errors import ConfigError, ReproError
from repro.hardware.pcm import PcmModule
from repro.sim import lifetime
from repro.sim.lifetime import (
    STRATEGIES,
    retire_on_first_failure_lifetime,
    run_lifetime,
    run_strategy,
    write_heavy,
)
from repro.workloads import workload


def tiny_spec():
    spec = write_heavy(workload("luindex"), mutations_per_object=2.0)
    return dataclasses.replace(spec, total_alloc_bytes=600_000)


class TestWriteHeavy:
    def test_enables_mutations(self):
        spec = write_heavy(workload("antlr"), 3.0)
        assert spec.mutations_per_object == 3.0
        # Original spec untouched.
        assert workload("antlr").mutations_per_object == 0.0


class TestRunLifetime:
    def test_requires_write_traffic(self):
        with pytest.raises(ReproError):
            run_lifetime(workload("antlr"), max_iterations=1)

    def test_module_ages_across_iterations(self):
        result = run_lifetime(
            tiny_spec(), max_iterations=4, endurance_mean_writes=60, clustering=False
        )
        assert result.iterations_completed >= 1
        assert len(result.records) >= 1
        fractions = [r.failed_fraction for r in result.records]
        assert fractions == sorted(fractions), "wear only accumulates"
        assert result.final_failed_fraction >= fractions[0]

    def test_records_carry_time_and_failures(self):
        result = run_lifetime(
            tiny_spec(), max_iterations=2, endurance_mean_writes=60
        )
        for record in result.records:
            assert record.simulated_ms > 0

    def test_label_defaults(self):
        result = run_lifetime(tiny_spec(), max_iterations=1, clustering=True)
        assert "2CL" in result.label
        assert "2CL" in result.describe()


class TestRetireBaseline:
    def test_dies_young_with_few_failed_lines(self):
        spec = tiny_spec()
        retire = retire_on_first_failure_lifetime(
            spec, max_iterations=10, endurance_mean_writes=40
        )
        aware = run_lifetime(
            spec, clustering=False, max_iterations=10, endurance_mean_writes=40
        )
        # The paper's motivating asymmetry: page retirement wastes the
        # module while almost all lines still work.
        assert retire.iterations_completed <= aware.iterations_completed
        if retire.iterations_completed < 10:
            assert retire.final_failed_fraction < 0.10


class TestRunStrategy:
    @pytest.mark.parametrize("strategy, label", [
        ("retire", "retire page on first failure"),
        ("aware", "no leveling, no clustering"),
        ("clustered", "no leveling, 2CL"),
        ("start-gap", "start-gap, no clustering"),
    ])
    def test_strategy_selects_its_study(self, strategy, label):
        assert strategy in STRATEGIES
        result = run_strategy(
            tiny_spec(), strategy, max_iterations=1, endurance_mean_writes=60
        )
        assert result.label == label

    def test_unknown_strategy_refused(self):
        with pytest.raises(ConfigError, match="unknown lifetime strategy 'nope'"):
            run_strategy(tiny_spec(), "nope", max_iterations=1,
                         endurance_mean_writes=60)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_module_is_freed_when_the_study_returns(self, strategy, monkeypatch):
        """With the cyclic collector off, reference counting alone frees
        the study's module: nothing holds it once the study returns."""
        modules = []

        def tracked(*args, **kwargs):
            module = PcmModule(*args, **kwargs)
            modules.append(weakref.ref(module))
            return module

        monkeypatch.setattr(lifetime, "PcmModule", tracked)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_strategy(
                tiny_spec(), strategy, max_iterations=2, endurance_mean_writes=40
            )
            assert len(modules) == 1
            assert modules[0]() is None
        finally:
            if was_enabled:
                gc.enable()
        assert result.records[0].dynamic_failures > 0
