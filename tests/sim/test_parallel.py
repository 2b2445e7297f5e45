"""Tests for the parallel grid executor (sim/parallel.py)."""

import pytest

from repro.errors import ConfigError
from repro.faults.generator import FailureModel
from repro.obs.ledger import SweepLedger
from repro.runtime.time_model import CostModel
from repro.sim.cache import ResultCache, result_to_dict
from repro.sim.chaos import ChaosConfig
from repro.sim.ftexec import RetryPolicy
from repro.sim.machine import RunConfig
from repro.sim.parallel import SweepStats, default_jobs, run_grid, sweep_artifact
from repro.sim.plan import cell_slug
from repro.sim.tracing import TraceDirectory
from tests.obs.traces import collection_spans


def small_grid():
    return [
        RunConfig(
            workload=name,
            scale=0.2,
            seed=seed,
            failure_model=FailureModel(rate=rate),
        )
        for name in ("luindex", "antlr")
        for seed in (0, 1)
        for rate in (0.0, 0.10)
    ]


class TestRunGrid:
    def test_serial_matches_input_order(self):
        grid = small_grid()
        results, stats = run_grid(grid, jobs=1)
        assert [r.config for r in results] == grid
        assert stats.cells == len(grid)
        assert len(stats.timings) == len(grid)

    def test_parallel_identical_to_serial(self):
        grid = small_grid()
        serial, _ = run_grid(grid, jobs=1)
        parallel, stats = run_grid(grid, jobs=4)
        assert parallel == serial
        assert [r.config for r in parallel] == grid
        assert stats.jobs == 4

    def test_progress_called_per_cell(self):
        messages = []
        grid = small_grid()[:2]
        run_grid(grid, jobs=1, progress=messages.append)
        assert len(messages) == 2
        assert "luindex" in messages[0]

    def test_auto_jobs(self):
        assert default_jobs() >= 1
        results, stats = run_grid(small_grid()[:2], jobs=0)
        assert len(results) == 2
        assert stats.jobs == default_jobs()

    def test_cached_cells_skip_the_pool(self, tmp_path):
        grid = small_grid()
        cache = ResultCache(tmp_path / "cache")
        first, first_stats = run_grid(grid, jobs=2, cache=cache)
        assert first_stats.cache_misses == len(grid)
        assert first_stats.cache_hits == 0
        second, second_stats = run_grid(grid, jobs=2, cache=cache)
        assert second_stats.cache_hits == len(grid)
        assert second_stats.cache_misses == 0
        assert second == first
        assert all(timing.cached for timing in second_stats.timings)

    def test_refuses_a_cache_built_for_another_cost_model(self, tmp_path):
        # The cache keys entries by its own cost model: a grid computed
        # under another would publish its timings as that model's.
        slow = CostModel(app_work_per_byte=110.0)
        grid = [RunConfig(workload="luindex", scale=0.05)]
        with pytest.raises(ConfigError, match="cost model"):
            run_grid(grid, cost_model=slow, cache=ResultCache(tmp_path))
        assert len(ResultCache(tmp_path)) == 0
        run_grid(grid, cost_model=slow, cache=ResultCache(tmp_path, cost_model=slow))


class TestSweepStats:
    def test_utilization_bounds(self):
        stats = SweepStats(jobs=2, cells=2, wall_s=1.0, busy_s=1.0)
        assert stats.utilization == pytest.approx(0.5)
        assert SweepStats(jobs=2).utilization == 0.0

    def test_to_dict_schema(self):
        grid = small_grid()[:2]
        _, stats = run_grid(grid, jobs=1)
        payload = stats.to_dict()
        assert payload["schema"] == "repro.sweep/2"
        assert payload["cells"] == 2
        assert payload["fault_tolerance"] == {
            "retries": 0,
            "timeouts": 0,
            "worker_crashes": 0,
            "worker_errors": 0,
            "quarantined": [],
        }
        assert payload["cache"] == {"hits": 0, "misses": 0}
        assert len(payload["cell_timings"]) == 2
        cell = payload["cell_timings"][0]
        assert {"index", "workload", "config", "wall_s", "cached", "completed"} \
            <= set(cell)

    def test_merge_accumulates(self):
        grid = small_grid()[:2]
        _, a = run_grid(grid, jobs=1)
        _, b = run_grid(grid, jobs=1)
        a.merge(b)
        assert a.cells == 4
        assert len(a.timings) == 4
        assert [t.index for t in a.timings] == [0, 1, 2, 3]


class TestTracedGrid:
    def test_traces_every_cell_without_touching_results(self, tmp_path):
        grid = small_grid()[:2]
        plain, _ = run_grid(grid, jobs=1)
        tracing = TraceDirectory(str(tmp_path / "traces"))
        traced, stats = run_grid(grid, tracing=tracing)
        assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == sorted(
            cell_slug(config) + ".trace.json" for config in grid
        )
        # Tracing adds the simulated-time phase breakdown and nothing else.
        assert all(result.phase_breakdown for result in traced)
        for a, b in zip(plain, traced):
            assert a.phase_breakdown is None
            assert a.time_units == b.time_units
            assert a.stats == b.stats
        assert stats.cells == len(stats.timings) == 2
        # Each cell's trace holds one collection span per collection.
        spans = collection_spans(tmp_path / "traces")
        assert spans == {
            cell_slug(r.config) + ".trace.json": r.stats["collections"]
            for r in traced
        }
        assert sum(spans.values()) > 0

    @pytest.mark.parametrize(
        "route",
        [
            {"jobs": 2},
            {"retry": RetryPolicy()},
            {"timeout_s": 5.0},
            {"chaos": ChaosConfig.parse("kill:0.5")},
        ],
    )
    def test_tracing_needs_the_in_process_route(self, tmp_path, route):
        with pytest.raises(ConfigError, match="in-process"):
            run_grid(
                small_grid()[:1], tracing=TraceDirectory(str(tmp_path)), **route
            )

    def test_tracing_refuses_a_cache(self, tmp_path):
        with pytest.raises(ConfigError, match="no cache"):
            run_grid(
                small_grid()[:1],
                cache=ResultCache(tmp_path / "cache"),
                tracing=TraceDirectory(str(tmp_path / "traces")),
            )


class TestSweepArtifact:
    def test_stats_plus_results(self):
        results, stats = run_grid(small_grid()[:2], jobs=1)
        payload = sweep_artifact(results, stats)
        assert payload == {
            **stats.to_dict(),
            "results": [result_to_dict(result) for result in results],
        }

    def test_ledger_adds_wall_clock_only(self):
        grid = small_grid()[:2]
        ledger = SweepLedger()
        results, stats = run_grid(grid, jobs=1, ledger=ledger)
        payload = sweep_artifact(results, stats, ledger)
        assert payload["wall_clock"]["schema"] == "repro.ledger-report/1"
        assert payload["wall_clock"]["cells"] == 2
        del payload["wall_clock"]
        assert payload == sweep_artifact(results, stats)
