"""Parallel, resumable execution of experiment grids.

The unit of work is one :class:`~repro.sim.machine.RunConfig` cell.
``run_grid`` has two routes: ``jobs <= 1`` with no retry, timeout or
chaos runs every cell in-process (so ``--trace``, ``--profile-cells``
and debuggers see it); everything else goes to the persistent-worker
executor in :mod:`repro.sim.ftexec`, which owns retry, timeout and
quarantine. Results come back **in input order**, so parallel output
is bit-identical to a serial run — ``run_benchmark`` is deterministic
in (config, cost model), and ordering is restored by index regardless
of completion order.

When a :class:`~repro.sim.cache.ResultCache` is supplied, cells already
on disk are served without reaching an executor, and fresh results are
published as they arrive — repeated figure/sweep runs only pay for
cells they have never seen, and a killed sweep resumes from the cells
it finished.

Every call also produces a :class:`SweepStats` record (per-cell wall
time, cache hit/miss counts, worker utilization) so the performance of
the harness itself stays observable; the CLI serializes it as
``BENCH_sweep.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.ledger import (
    CACHE_HIT,
    CACHE_MISS,
    CACHE_STORE,
    CHECKPOINT,
    CHECKPOINT_EVERY,
    COLLECT,
    DISPATCH,
    LEDGER_SCHEMA,
    SWEEP_BEGIN,
    SWEEP_END,
    SweepLedger,
)
from ..runtime.time_model import DEFAULT_COST_MODEL, CostModel
from .cache import ResultCache
from .chaos import ChaosConfig
from .ftexec import (
    SINGLE_ATTEMPT,
    FaultToleranceReport,
    RetryPolicy,
    run_attempt,
    run_cells_fault_tolerant,
)
from .machine import RunConfig, RunResult

#: Sweep-artifact schema identifier (see EXPERIMENTS.md). Version 2
#: added the fault-tolerance block and the deterministic ``results``
#: section the chaos-smoke CI job compares across runs.
SWEEP_SCHEMA = "repro.sweep/2"


def default_jobs() -> int:
    """Worker count used for ``--jobs 0`` (auto): one per CPU, capped."""
    return max(1, min(os.cpu_count() or 1, 16))


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
@dataclass
class CellTiming:
    """Wall-clock record of one grid cell."""

    index: int
    workload: str
    description: str
    wall_s: float
    cached: bool
    completed: bool

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "workload": self.workload,
            "config": self.description,
            "wall_s": self.wall_s,
            "cached": self.cached,
            "completed": self.completed,
        }


@dataclass
class SweepStats:
    """Aggregate accounting of one ``run_grid`` call."""

    jobs: int
    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    #: Sum of per-cell execution time (the work the workers actually did).
    busy_s: float = 0.0
    timings: List[CellTiming] = field(default_factory=list)
    #: What the worker executor survived: retries, timeouts, crashes,
    #: errors and quarantined cells (zeros on the in-process route,
    #: where a failing cell raises instead).
    fault_tolerance: FaultToleranceReport = field(
        default_factory=FaultToleranceReport
    )

    @property
    def utilization(self) -> float:
        """busy / (jobs x wall): 1.0 means every worker was saturated."""
        if self.wall_s <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.jobs * self.wall_s))

    def merge(self, other: "SweepStats") -> None:
        base = len(self.timings)
        self.cells += other.cells
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.wall_s += other.wall_s
        self.busy_s += other.busy_s
        self.fault_tolerance.merge(other.fault_tolerance)
        for timing in other.timings:
            self.timings.append(
                CellTiming(
                    index=base + timing.index,
                    workload=timing.workload,
                    description=timing.description,
                    wall_s=timing.wall_s,
                    cached=timing.cached,
                    completed=timing.completed,
                )
            )

    def to_dict(self) -> dict:
        return {
            "schema": SWEEP_SCHEMA,
            "jobs": self.jobs,
            "cells": self.cells,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "fault_tolerance": self.fault_tolerance.to_dict(),
            "cell_timings": [timing.to_dict() for timing in self.timings],
        }


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def run_grid(
    configs: Sequence[RunConfig],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    chaos: Optional[ChaosConfig] = None,
    ledger: Optional[SweepLedger] = None,
    profile_dir: Optional[str] = None,
) -> Tuple[List[RunResult], SweepStats]:
    """Execute every cell; results come back in input order.

    ``jobs == 0`` means auto (:func:`default_jobs`). Cached cells never
    reach an executor. The rest take one of two routes:

    * **in-process**, for ``jobs <= 1`` with no ``retry``, ``timeout_s``
      or ``chaos``: cells run one after another in this process, and an
      exception from a cell propagates;
    * **the worker executor** (:mod:`repro.sim.ftexec`) for everything
      else: erroring, crashed or overrunning attempts are retried under
      ``retry`` (default: a single attempt) and cells that keep failing
      are quarantined — the returned list then contains only the
      surviving results (still input-ordered) and
      ``stats.fault_tolerance`` reports the casualties. ``chaos`` is
      the test/CI hook that injects worker failures.

    ``ledger`` is the flight recorder (:mod:`repro.obs.ledger`):
    parent-side events go through it (and its listeners — live
    progress, serve job counters); workers append straight to its
    ``path``, if any. ``profile_dir`` arms per-attempt cProfile
    spooling. Both are strictly observational — they never change the
    returned results.
    """
    if jobs == 0:
        jobs = default_jobs()
    configs = list(configs)
    stats = SweepStats(jobs=max(1, jobs), cells=len(configs))
    results: List[Optional[RunResult]] = [None] * len(configs)
    recorder = ledger if ledger is not None else SweepLedger()
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
    started = time.perf_counter()
    recorder.emit(
        SWEEP_BEGIN, schema=LEDGER_SCHEMA, cells=len(configs), jobs=max(1, jobs)
    )

    pending: List[Tuple[int, RunConfig]] = []
    for index, config in enumerate(configs):
        if cache is not None:
            lookup_start = time.perf_counter()
            hit = cache.get(config)
            lookup_wall = time.perf_counter() - lookup_start
            if hit is not None:
                results[index] = hit
                stats.cache_hits += 1
                stats.timings.append(
                    CellTiming(
                        index=index,
                        workload=config.workload,
                        description=_describe(config),
                        wall_s=lookup_wall,
                        cached=True,
                        completed=hit.completed,
                    )
                )
                recorder.emit(
                    CACHE_HIT,
                    cell=index,
                    workload=config.workload,
                    wall_s=lookup_wall,
                )
                continue
            stats.cache_misses += 1
            recorder.emit(
                CACHE_MISS,
                cell=index,
                workload=config.workload,
                wall_s=lookup_wall,
            )
        pending.append((index, config))

    completed = 0

    def _complete(index: int, result: RunResult, wall: float) -> None:
        nonlocal completed
        results[index] = result
        stats.busy_s += wall
        stats.timings.append(
            CellTiming(
                index=index,
                workload=result.config.workload,
                description=_describe(result.config),
                wall_s=wall,
                cached=False,
                completed=result.completed,
            )
        )
        if cache is not None:
            store_start = time.perf_counter()
            cache.put(result.config, result)
            recorder.emit(
                CACHE_STORE,
                cell=index,
                workload=result.config.workload,
                wall_s=time.perf_counter() - store_start,
            )
        completed += 1
        if completed % CHECKPOINT_EVERY == 0:
            recorder.emit(CHECKPOINT, done=completed, total=len(pending))
        if progress is not None:
            progress(
                f"{result.config.workload} {_describe(result.config)}: "
                f"{'ok' if result.completed else 'DNF'} ({wall:.2f}s)"
            )

    teardown_s = 0.0
    in_process = jobs <= 1 and retry is None and timeout_s is None
    if pending and in_process and chaos is None:
        for index, config in pending:
            recorder.emit(DISPATCH, cell=index, workload=config.workload)
            result, wall = run_attempt(
                index, config, 1, cost_model, recorder.path, profile_dir
            )
            recorder.emit(
                COLLECT, cell=index, workload=config.workload, wall_s=wall
            )
            _complete(index, result, wall)
    elif pending:
        # The executor emits dispatch/collect itself and hands each
        # completion over as it arrives, so the cache fills as it goes.
        _, ft_report, teardown_s = run_cells_fault_tolerant(
            pending,
            cost_model,
            jobs,
            retry or SINGLE_ATTEMPT,
            timeout_s=timeout_s,
            progress=progress,
            chaos=chaos,
            describe=_describe,
            ledger=recorder,
            profile_dir=profile_dir,
            on_complete=_complete,
        )
        stats.fault_tolerance.merge(ft_report)

    stats.timings.sort(key=lambda timing: timing.index)
    stats.wall_s = time.perf_counter() - started
    recorder.emit(
        SWEEP_END,
        cells=len(configs),
        executed=completed,
        cached=stats.cache_hits,
        quarantined=len(stats.fault_tolerance.quarantined),
        wall_s=stats.wall_s,
        teardown_s=teardown_s,
    )
    final = [result for result in results if result is not None]
    # Quarantined cells are the only legitimate gaps (partial results
    # instead of an aborted sweep); anything else missing is a bug.
    assert len(final) == len(configs) - len(stats.fault_tolerance.quarantined)
    return final, stats


def _describe(config: RunConfig) -> str:
    return (
        f"{config.failure_model.describe()} L{config.immix_line} "
        f"h{config.heap_multiplier:g} {config.collector} seed{config.seed}"
    )
