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

from ..errors import CellsQuarantinedError
from ..obs.ledger import SweepLedger
from ..runtime.time_model import DEFAULT_COST_MODEL, CostModel
from .cache import ResultCache
from .ftexec import RetryPolicy
from .machine import RunConfig, RunResult
from .parallel import SweepStats, default_jobs, run_grid
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

    :meth:`run` is the one way cells execute: it expands seeds, skips
    cells the runner already holds, and sends the rest through one
    :func:`~repro.sim.parallel.run_grid` call with every option the
    runner was built with, as ``repro sweep`` does. Results are memoized
    per (config, cost model) in memory and, with ``cache``, on disk;
    parallel execution is bit-identical to serial because each cell is
    deterministic and ordering is restored by the grid index.

    Figure harnesses :meth:`run` their whole grid before aggregating, so
    :meth:`measure` and the geomeans built on it read memoized results.
    :attr:`results` and :attr:`stats` accumulate every call's output for
    :func:`~repro.sim.parallel.sweep_artifact`; a quarantined cell makes
    :meth:`run` raise :class:`~repro.errors.CellsQuarantinedError` once
    both are recorded. ``tracing`` (a
    :class:`~repro.sim.tracing.TraceDirectory`) traces every executed
    cell and needs ``jobs=1`` and no cache, retry or timeout.
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
    ) -> None:
        self.seeds = tuple(seeds)
        self.cost_model = cost_model
        self.progress = progress or (lambda message: None)
        self.cache = cache
        self.jobs = jobs
        self.tracing = tracing
        self.retry = retry
        self.timeout_s = timeout_s
        #: Flight recorder threaded through every ``run_grid`` call
        #: (observational only — see :mod:`repro.obs.ledger`).
        self.ledger = ledger
        # Keyed on (config, cost model): two runners (or one runner
        # whose model is swapped) must never share timings computed
        # under different constants.
        self._cache: Dict[Tuple[RunConfig, CostModel], RunResult] = {}
        #: Every result :meth:`run` executed or served from disk, in
        #: execution order (quarantined cells absent).
        self.results: List[RunResult] = []
        #: The accounting of every ``run_grid`` call, merged.
        self.stats = SweepStats(jobs=max(1, jobs or default_jobs()))

    # ------------------------------------------------------------------
    def run(self, configs: Iterable[RunConfig]) -> List[RunResult]:
        """Results of every (config x seed) cell, in that order.

        Cells the runner does not hold yet execute in one ``run_grid``
        call; held cells make no call at all. Raises
        :class:`~repro.errors.CellsQuarantinedError` (after recording
        the survivors) when the worker executor gives up on a cell.
        """
        keys = [
            (replace(config, seed=seed), self.cost_model)
            for config in configs
            for seed in self.seeds
        ]
        missing = [key[0] for key in dict.fromkeys(keys) if key not in self._cache]
        if missing:
            results, stats = run_grid(
                missing,
                cost_model=self.cost_model,
                jobs=self.jobs,
                cache=self.cache,
                retry=self.retry,
                timeout_s=self.timeout_s,
                ledger=self.ledger,
                tracing=self.tracing,
            )
            # Key by the result's own config, not by zipping against
            # `missing`: quarantined cells leave gaps in `results`.
            for result in results:
                self._cache[(result.config, self.cost_model)] = result
            self.results.extend(results)
            self.stats.merge(stats)
            if stats.fault_tolerance.quarantined:
                raise CellsQuarantinedError(stats.fault_tolerance)
        return [self._cache[key] for key in keys]

    # ------------------------------------------------------------------
    def measure(self, config: RunConfig) -> BenchmarkMeasurement:
        """Run all seeds of one (workload, configuration) pair."""
        results = self.run([config])
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
