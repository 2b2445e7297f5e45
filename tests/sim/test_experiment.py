"""Tests for experiment aggregation."""

import math
from dataclasses import replace

import pytest

from repro.errors import CellsQuarantinedError
from repro.faults.generator import FailureModel
from repro.sim import experiment
from repro.sim.experiment import ExperimentRunner, geomean
from repro.sim.machine import RunConfig

QUICK = RunConfig(workload="luindex", heap_multiplier=2.0, scale=0.25)


class TestGeomean:
    def test_simple(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_empty_is_nan(self):
        assert math.isnan(geomean([]))

    def test_non_positive_is_nan(self):
        # A degenerate zero-time run must not crash whole-figure
        # aggregation; nan renders as DNF via report.format_value.
        assert math.isnan(geomean([1.0, 0.0]))
        assert math.isnan(geomean([-1.0, 2.0]))


class TestRunner:
    def test_caching_avoids_reruns(self):
        runner = ExperimentRunner(seeds=(0,))
        (first,) = runner.run([QUICK])
        (second,) = runner.run([QUICK])
        assert first is second
        assert runner.measure(QUICK).results[0] is first

    def test_measure_aggregates_seeds(self):
        runner = ExperimentRunner(seeds=(0, 1))
        measurement = runner.measure(QUICK)
        assert measurement.completed
        assert len(measurement.results) == 2
        times = [r.time_units for r in measurement.results]
        assert measurement.mean_time == pytest.approx(sum(times) / 2)

    def test_normalized_geomean_baseline_is_one(self):
        runner = ExperimentRunner(seeds=(0,))
        value = runner.normalized_geomean(["luindex"], QUICK, QUICK)
        assert value == pytest.approx(1.0)

    def test_normalized_geomean_none_on_dnf(self):
        runner = ExperimentRunner(seeds=(0,))
        hopeless = replace(
            QUICK,
            heap_multiplier=1.0,
            failure_model=FailureModel(rate=0.50),
            compensate=False,
        )
        assert runner.normalized_geomean(["luindex"], hopeless, QUICK) is None

    def test_per_benchmark_overheads(self):
        runner = ExperimentRunner(seeds=(0,))
        overheads = runner.per_benchmark_overheads(["luindex"], QUICK, QUICK)
        assert overheads == {"luindex": pytest.approx(1.0)}

    def test_geomean_demand(self):
        runner = ExperimentRunner(seeds=(0,))
        demand = runner.geomean_demand(["luindex"], QUICK)
        assert demand is not None and demand >= 1.0

    def test_progress_callback(self):
        messages = []
        runner = ExperimentRunner(seeds=(0,), progress=messages.append)
        runner.measure(QUICK)
        assert messages and "luindex" in messages[0]

    def test_cache_key_includes_cost_model(self):
        # Same config under a different cost model must not reuse the
        # cached timing computed under the old constants.
        from repro.runtime.time_model import CostModel

        runner = ExperimentRunner(seeds=(0,))
        (before,) = runner.run([QUICK])
        runner.cost_model = CostModel(app_work_per_byte=110.0)
        (after,) = runner.run([QUICK])
        assert after is not before
        assert after.time_units > before.time_units

    def test_measure_reports_partial_completion(self, monkeypatch):
        from dataclasses import replace as dc_replace

        from repro.sim.parallel import SweepStats

        (real,) = ExperimentRunner(seeds=(0,)).run([QUICK])

        def fake_run_grid(configs, **options):
            results = [
                dc_replace(real, config=config, completed=config.seed != 1)
                for config in configs
            ]
            return results, SweepStats(jobs=1, cells=len(results))

        messages = []
        runner = ExperimentRunner(seeds=(0, 1), progress=messages.append)
        monkeypatch.setattr(experiment, "run_grid", fake_run_grid)
        measurement = runner.measure(QUICK)
        assert measurement.completed
        assert measurement.seeds_completed == 1
        assert measurement.seeds_total == 2
        assert measurement.partial
        assert any("ok 1/2" in message for message in messages)

    def test_measure_records_full_completion_counts(self):
        runner = ExperimentRunner(seeds=(0, 1))
        measurement = runner.measure(QUICK)
        assert measurement.seeds_completed == 2
        assert measurement.seeds_total == 2
        assert not measurement.partial


class TestRunnerRun:
    def test_run_fills_memory_cache_in_one_grid_call(self, tmp_path, monkeypatch):
        from repro.sim.cache import ResultCache

        calls = []
        real_run_grid = experiment.run_grid

        def counting_run_grid(configs, **options):
            calls.append(list(configs))
            return real_run_grid(configs, **options)

        monkeypatch.setattr(experiment, "run_grid", counting_run_grid)
        runner = ExperimentRunner(
            seeds=(0, 1), cache=ResultCache(tmp_path / "cache")
        )
        other = replace(QUICK, failure_model=FailureModel(rate=0.10))
        results = runner.run([QUICK, other, QUICK])
        # Seeds expand, the duplicate collapses, and one call runs it all.
        (grid,) = calls
        assert grid == [replace(c, seed=s) for c in (QUICK, other) for s in (0, 1)]
        assert [r.config for r in results] == grid + grid[:2]
        assert runner.results == results[:4]
        assert runner.stats.cells == runner.stats.cache_misses == 4
        # Aggregation is now a pure lookup (same objects back).
        assert runner.measure(other).results == results[2:4]
        assert all(
            runner._cache[(r.config, runner.cost_model)] is r for r in results
        )
        assert len(calls) == 1

    def test_held_cells_make_no_grid_call(self, monkeypatch):
        runner = ExperimentRunner(seeds=(0,))
        first = runner.run([QUICK])

        def no_grid(configs, **options):
            raise AssertionError("held cells reached run_grid")

        monkeypatch.setattr(experiment, "run_grid", no_grid)
        second = runner.run([QUICK])
        assert second[0] is first[0]
        assert runner.measure(QUICK).results[0] is first[0]
        assert runner.stats.cells == len(runner.results) == 1

    def test_quarantine_raises_after_recording(self, monkeypatch):
        from repro.sim import ftexec

        real = ftexec.run_benchmark

        def flaky(config, cost_model):
            if config.failure_model.rate > 0:
                raise RuntimeError("cell blew up")
            return real(config, cost_model)

        monkeypatch.setattr(ftexec, "run_benchmark", flaky)  # workers fork
        runner = ExperimentRunner(seeds=(0,), jobs=2)
        faulty = replace(QUICK, failure_model=FailureModel(rate=0.10))
        with pytest.raises(CellsQuarantinedError) as raised:
            runner.run([QUICK, faulty])
        (cell,) = raised.value.report.quarantined
        assert "RuntimeError: cell blew up" in cell.failures[0]
        assert [r.config for r in runner.results] == [QUICK]
        assert runner.stats.cells == 2
        assert runner.stats.fault_tolerance.quarantined == [cell]
