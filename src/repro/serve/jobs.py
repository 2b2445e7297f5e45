"""Job queue of the experiment service: one shared cache, one pool.

Submissions become :class:`Job` records processed by a single worker
thread, one job at a time, each fanned out over the same
:func:`~repro.sim.parallel.run_grid` worker pool and the same
:class:`~repro.sim.cache.ResultCache` directory. That pairing is what
makes concurrent clients cheap: jobs serialize at the queue, so by the
time the second submission of an identical plan runs, every cell is
already on disk and replays as a cache hit — each distinct cell is
simulated exactly once no matter how many clients ask for it
(WoLFRaM's shared-remapping-state shape: many writers, one store).

A job takes the same route as ``sweep --plan`` — the plan precheck,
:func:`~repro.sim.parallel.run_grid` with its retry and quarantine
semantics, then :func:`~repro.sim.parallel.sweep_artifact`, to which
the service adds only a ``job`` key — so a job's ``results`` section
is bit-identical to running its plan offline.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.ledger import CACHE_HIT, COLLECT, SweepLedger, SweepProgress
from ..obs.metrics import MetricsRegistry
from ..runtime.time_model import DEFAULT_COST_MODEL, CostModel
from ..sim.cache import ResultCache
from ..sim.ftexec import RetryPolicy
from ..sim.parallel import run_grid, sweep_artifact
from ..sim.plan import ExpandedPlan, cell_slug, expand
from ..errors import PlanError
from . import protocol

#: Metric names the serve-smoke CI job and the tests key off.
JOBS_SUBMITTED_TOTAL = "repro_serve_jobs_submitted_total"
JOBS_REJECTED_TOTAL = "repro_serve_jobs_rejected_total"
JOBS_COMPLETED_TOTAL = "repro_serve_jobs_completed_total"
JOBS_PARTIAL_TOTAL = "repro_serve_jobs_partial_total"
JOBS_FAILED_TOTAL = "repro_serve_jobs_failed_total"
QUEUE_DEPTH = "repro_serve_queue_depth"
JOB_WALL_SECONDS = "repro_serve_job_wall_seconds"
CELLS_EXECUTED_TOTAL = "repro_serve_cells_executed_total"
CELL_WALL_SECONDS = "repro_serve_cell_wall_seconds"
CACHE_LOOKUP_SECONDS = "repro_serve_cache_lookup_seconds"
CACHE_HITS = "repro_serve_cache_hits"
CACHE_MISSES = "repro_serve_cache_misses"
CACHE_STORES = "repro_serve_cache_stores"

_STOP = object()


@dataclass
class Job:
    """One submitted plan moving through the queue."""

    id: str
    plan: ExpandedPlan
    source: str
    state: str = protocol.STATE_QUEUED
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: Uncached cells executed so far (ledger ``collect`` count).
    executed_cells: int = 0
    #: Cells served from the shared cache (ledger ``cache_hit`` count).
    cached_cells: int = 0
    quarantined: int = 0
    #: Latest per-cell narration line from the executor (the text the
    #: old progress callback used to drop on the floor).
    last_message: Optional[str] = None
    error: Optional[str] = None
    artifact: Optional[Dict[str, Any]] = None
    #: Live progress listener, attached while the job runs; its
    #: snapshot backs the status document's ``progress`` block.
    tracker: Optional[SweepProgress] = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in protocol.TERMINAL_STATES


class JobManager:
    """Queue + worker thread + shared cache behind the HTTP surface.

    Thread model: HTTP handler threads call :meth:`submit` and the
    read-only accessors; exactly one worker thread (started by
    :meth:`start`) mutates job state past ``queued``. All shared state
    is guarded by one lock; the executor itself runs outside it.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        jobs: int = 1,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.cache = cache
        self.pool_jobs = jobs
        self.retry = retry
        self.timeout_s = timeout_s
        self.cost_model = cost_model
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_unix = time.time()
        self._queue: "queue.Queue" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._serial = 0
        self._worker: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._worker is not None:
            return
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-serve-worker", daemon=True
        )
        self._worker.start()

    def stop(self, timeout_s: float = 30.0) -> None:
        if self._worker is None:
            return
        self._queue.put(_STOP)
        self._worker.join(timeout_s)
        self._worker = None

    # ------------------------------------------------------------------
    # Submission (HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, document: Any, source: str = "<POST /jobs>") -> Job:
        """Validate and enqueue one plan document.

        Raises :class:`~repro.serve.protocol.PlanRejected` — the HTTP
        422 path, carrying the *complete* precheck problem list — for
        anything the offline CLI would exit 2 on.
        """
        try:
            protocol.validate_submission(document)
            plan = expand(document, source=source)
        except PlanError as exc:
            self._counter(JOBS_REJECTED_TOTAL, "plans failing precheck").inc()
            raise protocol.PlanRejected(
                [
                    {"where": problem.where, "message": problem.message}
                    for problem in exc.problems
                ]
            ) from exc
        except protocol.PlanRejected:
            self._counter(JOBS_REJECTED_TOTAL, "plans failing precheck").inc()
            raise
        if not plan.cells:
            self._counter(JOBS_REJECTED_TOTAL, "plans failing precheck").inc()
            raise protocol.PlanRejected.single(
                "axes",
                f"plan {plan.name!r} expands to no grid cells (a "
                "figures-only plan?); the service runs grids — execute "
                "figure plans offline with 'figures --plan'",
            )
        with self._lock:
            self._serial += 1
            job = Job(id=f"job-{self._serial:06d}", plan=plan, source=source)
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._counter(JOBS_SUBMITTED_TOTAL, "plans accepted into the queue").inc()
        self._queue.put(job)
        self._update_queue_gauge()
        return job

    # ------------------------------------------------------------------
    # Worker thread
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            self._run_job(item)
            self._update_queue_gauge()

    def _run_job(self, job: Job) -> None:
        # In-memory flight recorder: events reach the listeners below
        # (live counters, the /jobs/<id> progress block, /metrics
        # histograms) but nothing touches disk and the results stay
        # bit-identical to an offline, unrecorded sweep.
        tracker = SweepProgress()
        ledger = SweepLedger()
        ledger.add_listener(tracker)
        ledger.add_listener(
            lambda record: self._on_ledger_event(job, tracker, record)
        )
        with self._lock:
            job.state = protocol.STATE_RUNNING
            job.started_unix = time.time()
            job.tracker = tracker

        def progress(message: str) -> None:
            # Per-cell narration from the executor; keep the latest
            # line so the status document can say what ran last.
            with self._lock:
                job.last_message = message

        try:
            results, stats = run_grid(
                job.plan.cells,
                self.cost_model,
                jobs=self.pool_jobs,
                cache=self.cache,
                progress=progress,
                retry=self.retry,
                timeout_s=self.timeout_s,
                ledger=ledger,
            )
        except Exception as exc:  # keep the daemon alive; the job dies
            with self._lock:
                job.state = protocol.STATE_FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_unix = time.time()
            self._counter(JOBS_FAILED_TOTAL, "jobs whose executor raised").inc()
            self._observe_wall(job)
            return
        # The `sweep --plan` artifact plus job metadata on the side —
        # an extra key, never different ones.
        payload = sweep_artifact(results, stats)
        payload["job"] = {
            "id": job.id,
            "plan": job.plan.name,
            "source": job.source,
            "submitted_unix": job.submitted_unix,
        }
        quarantined = len(stats.fault_tolerance.quarantined)
        with self._lock:
            job.artifact = payload
            job.quarantined = quarantined
            job.state = (
                protocol.STATE_PARTIAL if quarantined else protocol.STATE_COMPLETED
            )
            job.finished_unix = time.time()
        self._counter(
            JOBS_PARTIAL_TOTAL if quarantined else JOBS_COMPLETED_TOTAL,
            "jobs finishing with quarantined cells"
            if quarantined
            else "jobs finishing cleanly",
        ).inc()
        self._observe_wall(job)
        self._update_cache_gauges()

    # ------------------------------------------------------------------
    # Read side (HTTP handler threads)
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def job_ids(self) -> List[str]:
        with self._lock:
            return list(self._order)

    def status(self, job: Job) -> Dict[str, Any]:
        with self._lock:
            wall = None
            if job.started_unix is not None:
                end = job.finished_unix or time.time()
                wall = end - job.started_unix
            return {
                "schema": protocol.JOB_SCHEMA,
                "id": job.id,
                "state": job.state,
                "plan": job.plan.name,
                "source": job.source,
                "cells": len(job.plan.cells),
                "cells_total": len(job.plan.cells),
                "executed_cells": job.executed_cells,
                "cached_cells": job.cached_cells,
                "quarantined": job.quarantined,
                "progress": (
                    protocol.progress_payload(
                        job.tracker.snapshot(), job.last_message
                    )
                    if job.tracker is not None
                    else None
                ),
                "submitted_unix": job.submitted_unix,
                "started_unix": job.started_unix,
                "finished_unix": job.finished_unix,
                "wall_s": wall,
                "error": job.error,
                "links": protocol.job_links(job.id),
            }

    def cell_index(self, job: Job) -> List[Dict[str, Any]]:
        """Per-cell directory: slug per plan cell, in plan order."""
        return [
            {"index": index, "slug": cell_slug(config)}
            for index, config in enumerate(job.plan.cells)
        ]

    def health(self) -> Dict[str, Any]:
        with self._lock:
            states = {state: 0 for state in (protocol.STATE_QUEUED,
                                             protocol.STATE_RUNNING,
                                             *protocol.TERMINAL_STATES)}
            for job in self._jobs.values():
                states[job.state] += 1
            worker_alive = self._worker is not None and self._worker.is_alive()
        payload: Dict[str, Any] = {
            "schema": protocol.PROTOCOL_SCHEMA,
            "status": "ok" if worker_alive else "starting",
            "uptime_s": time.time() - self.started_unix,
            "queue": states,
            "pool": {
                "jobs": self.pool_jobs,
                "retry": protocol.describe_retry(self.retry),
                "timeout_s": self.timeout_s,
                "worker_alive": worker_alive,
            },
            "cache": (
                {"dir": str(self.cache.root), **self.cache.counters()}
                if self.cache is not None
                else None
            ),
        }
        return payload

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    def _on_ledger_event(
        self, job: Job, tracker: SweepProgress, record: Dict[str, Any]
    ) -> None:
        """Ledger listener: fold one parent-side event into counters.

        Runs on the worker thread (parent-side emits only), so the job
        fields it mirrors from ``tracker`` are guarded by the manager
        lock like every other job mutation.
        """
        ev = record.get("ev")
        wall = record.get("wall_s")
        if ev == COLLECT:
            self._counter(
                CELLS_EXECUTED_TOTAL, "uncached cells the pool executed"
            ).inc()
            if isinstance(wall, (int, float)):
                self.registry.histogram(
                    CELL_WALL_SECONDS, "wall time of one executed cell"
                ).observe(float(wall))
        elif ev == CACHE_HIT and isinstance(wall, (int, float)):
            self.registry.histogram(
                CACHE_LOOKUP_SECONDS, "wall time of one shared-cache hit"
            ).observe(float(wall))
        with self._lock:
            job.executed_cells = tracker.executed
            job.cached_cells = tracker.cached
            job.quarantined = tracker.quarantined

    def _counter(self, name: str, help_text: str):
        return self.registry.counter(name, help_text)

    def _update_queue_gauge(self) -> None:
        self.registry.gauge(
            QUEUE_DEPTH, "jobs waiting for the worker"
        ).set(self._queue.qsize())

    def _observe_wall(self, job: Job) -> None:
        if job.started_unix is not None and job.finished_unix is not None:
            self.registry.histogram(
                JOB_WALL_SECONDS, "job wall time, submission to terminal state"
            ).observe(job.finished_unix - job.started_unix)

    def _update_cache_gauges(self) -> None:
        if self.cache is None:
            return
        counters = self.cache.counters()
        self.registry.gauge(CACHE_HITS, "shared-cache hits").set(counters["hits"])
        self.registry.gauge(CACHE_MISSES, "shared-cache misses").set(
            counters["misses"]
        )
        self.registry.gauge(CACHE_STORES, "shared-cache stores").set(
            counters["stores"]
        )
