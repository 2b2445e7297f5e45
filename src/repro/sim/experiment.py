"""Experiment aggregation: seeds, normalization, geometric means.

The paper's methodology (section 5): multiple invocations per
configuration, geometric means across benchmarks, normalization to
unmodified Sticky Immix, and truncated curves when a configuration
cannot run every benchmark. These helpers implement exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.ledger import SweepLedger
from ..runtime.time_model import DEFAULT_COST_MODEL, CostModel
from .cache import ResultCache
from .ftexec import RetryPolicy
from .machine import RunConfig, RunResult
from .parallel import SweepStats, run_grid
from .tracing import TraceDirectory


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; empty or degenerate input returns nan.

    A zero or negative value (a degenerate zero-time run) poisons the
    aggregate rather than crashing whole-figure aggregation; callers
    render nan as DNF via :func:`repro.sim.report.format_value`.
    """
    if not values or any(v <= 0 for v in values):
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class BenchmarkMeasurement:
    """Aggregated result of one benchmark at one configuration."""

    workload: str
    completed: bool
    mean_time: float
    mean_ms: float
    mean_perfect_demand: float
    results: List[RunResult]
    #: Seeds that completed / seeds attempted. Partial completion
    #: (``0 < seeds_completed < seeds_total``) means the means above
    #: average over a smaller sample than a fully-completed cell.
    seeds_completed: int = 0
    seeds_total: int = 0

    @property
    def partial(self) -> bool:
        return 0 < self.seeds_completed < self.seeds_total


class ExperimentRunner:
    """Runs (workloads x configs x seeds) grids with caching.

    Results are memoized per (config, cost model) in memory, and — when
    ``cache`` is supplied — persisted to disk so later processes skip
    completed cells. Every cell runs through
    :func:`~repro.sim.parallel.run_grid`: :meth:`run_one` one at a time
    in-process, and ``jobs > 1`` lets :meth:`prefetch` fan uncached
    cells out over worker processes; parallel execution is bit-identical
    to serial because each cell is deterministic and ordering is
    restored by the grid index.

    ``tracing`` (a :class:`~repro.sim.tracing.TraceDirectory`) traces
    every cell actually executed. A traced runner never prefetches and
    bypasses the disk cache (see :mod:`repro.sim.tracing`); the
    in-memory memo still traces each unique cell exactly once.

    ``retry``/``timeout_s`` set the attempts and per-attempt budget of
    prefetch fan-outs on the worker executor (:mod:`repro.sim.ftexec`).
    Cells it quarantines simply stay unmemoized; aggregation then
    re-runs them inline via :meth:`run_one` — a serial in-process last
    resort, so a figure still completes after persistent worker
    trouble.
    """

    def __init__(
        self,
        seeds: Sequence[int] = (0, 1),
        cost_model: CostModel = DEFAULT_COST_MODEL,
        progress: Optional[Callable[[str], None]] = None,
        cache: Optional[ResultCache] = None,
        jobs: int = 1,
        tracing: Optional[TraceDirectory] = None,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        ledger: Optional[SweepLedger] = None,
        profile_dir: Optional[str] = None,
    ) -> None:
        self.seeds = tuple(seeds)
        self.cost_model = cost_model
        self.progress = progress or (lambda message: None)
        self.cache = cache
        self.jobs = jobs
        self.tracing = tracing
        self.retry = retry
        self.timeout_s = timeout_s
        #: Flight recorder threaded through every prefetch fan-out
        #: (observational only — see :mod:`repro.obs.ledger`).
        self.ledger = ledger
        self.profile_dir = profile_dir
        # Keyed on (config, cost model): two runners (or one runner
        # whose model is swapped) must never share timings computed
        # under different constants.
        self._cache: Dict[Tuple[RunConfig, CostModel], RunResult] = {}
        #: One entry per prefetch fan-out, for BENCH_sweep.json.
        self.sweeps: List[SweepStats] = []

    # ------------------------------------------------------------------
    def run_one(self, config: RunConfig) -> RunResult:
        key = (config, self.cost_model)
        cached = self._cache.get(key)
        if cached is None:
            cache = self.cache if self.tracing is None else None
            (cached,), _ = run_grid(
                [config], self.cost_model, cache=cache, tracing=self.tracing
            )
        self._cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def prefetch(self, configs: Iterable[RunConfig]) -> Optional[SweepStats]:
        """Execute every (config x seed) cell ahead of aggregation.

        Expands seeds, dedups, and fans uncached cells out over
        ``self.jobs`` workers, so the serial aggregation logic that
        follows is all cache hits. A no-op when running serially with
        no persistent cache — the lazy path is then strictly cheaper
        (aggregation may early-exit and skip cells) — and when traced,
        since traced cells run one by one through :meth:`run_one`.
        """
        if self.tracing is not None or (self.jobs <= 1 and self.cache is None):
            return None
        expanded: List[RunConfig] = []
        seen = set()
        for config in configs:
            for seed in self.seeds:
                cell = replace(config, seed=seed)
                key = (cell, self.cost_model)
                if key in seen or key in self._cache:
                    continue
                seen.add(key)
                expanded.append(cell)
        if not expanded:
            return None
        results, stats = run_grid(
            expanded,
            cost_model=self.cost_model,
            jobs=self.jobs,
            cache=self.cache,
            progress=None,
            retry=self.retry,
            timeout_s=self.timeout_s,
            ledger=self.ledger,
            profile_dir=self.profile_dir,
        )
        # Key by the result's own config, not by zipping against
        # `expanded`: the fault-tolerant path may quarantine cells, and
        # a positional zip would then memoize results under the wrong
        # configs.
        for result in results:
            self._cache[(result.config, self.cost_model)] = result
        self.sweeps.append(stats)
        return stats

    def sweep_summary(self) -> Optional[SweepStats]:
        """All prefetch fan-outs of this runner merged into one record."""
        if not self.sweeps:
            return None
        merged = SweepStats(jobs=max(s.jobs for s in self.sweeps))
        for stats in self.sweeps:
            merged.merge(stats)
        return merged

    # ------------------------------------------------------------------
    def measure(self, config: RunConfig) -> BenchmarkMeasurement:
        """Run all seeds of one (workload, configuration) pair."""
        results = [self.run_one(replace(config, seed=seed)) for seed in self.seeds]
        completed = [r for r in results if r.completed]
        if not completed:
            status = "DNF"
        elif len(completed) < len(results):
            # Partial completion changes the sample size; say so rather
            # than reporting a clean "ok".
            status = f"ok {len(completed)}/{len(results)}"
        else:
            status = "ok"
        self.progress(
            f"{config.workload} {config.failure_model.describe()} "
            f"L{config.immix_line} h{config.heap_multiplier:g}: {status}"
        )
        if not completed:
            return BenchmarkMeasurement(
                config.workload, False, float("nan"), float("nan"), float("nan"),
                results, seeds_completed=0, seeds_total=len(results),
            )
        return BenchmarkMeasurement(
            workload=config.workload,
            completed=True,
            mean_time=sum(r.time_units for r in completed) / len(completed),
            mean_ms=sum(r.time_ms for r in completed) / len(completed),
            mean_perfect_demand=sum(r.perfect_page_demand for r in completed)
            / len(completed),
            results=results,
            seeds_completed=len(completed),
            seeds_total=len(results),
        )

    # ------------------------------------------------------------------
    def normalized_geomean(
        self,
        workloads: Sequence[str],
        config: RunConfig,
        baseline: RunConfig,
    ) -> Optional[float]:
        """Geomean over benchmarks of time(config)/time(baseline).

        Returns None when any benchmark fails to complete — the paper
        discards aggregate points where some benchmark cannot run,
        which is what truncates its curves.
        """
        ratios = []
        for name in workloads:
            measured = self.measure(replace(config, workload=name))
            base = self.measure(replace(baseline, workload=name))
            if not measured.completed or not base.completed:
                return None
            ratios.append(measured.mean_time / base.mean_time)
        return geomean(ratios)

    def per_benchmark_overheads(
        self,
        workloads: Sequence[str],
        config: RunConfig,
        baseline: RunConfig,
    ) -> Dict[str, Optional[float]]:
        """time(config)/time(baseline) per benchmark; None marks DNF."""
        overheads: Dict[str, Optional[float]] = {}
        for name in workloads:
            measured = self.measure(replace(config, workload=name))
            base = self.measure(replace(baseline, workload=name))
            if not measured.completed or not base.completed:
                overheads[name] = None
            else:
                overheads[name] = measured.mean_time / base.mean_time
        return overheads

    def geomean_demand(
        self, workloads: Sequence[str], config: RunConfig
    ) -> Optional[float]:
        """Geomean perfect-page demand (figure 9b's metric)."""
        demands = []
        for name in workloads:
            measured = self.measure(replace(config, workload=name))
            if not measured.completed:
                return None
            demands.append(max(1.0, measured.mean_perfect_demand))
        return geomean(demands)
