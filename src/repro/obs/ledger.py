"""Sweep flight recorder: a cross-process wall-clock event ledger.

PR 3's tracer measures *simulated* time inside one process; this
module records where the harness spends its *real* wall-clock time
across every process a sweep touches. The parent (:func:`run_grid`)
and each worker append typed events to one shared JSONL file — schema
``repro.ledger/1`` — via :func:`repro.ioutil.append_jsonl`, whose
single-``write`` ``O_APPEND`` discipline makes concurrent appends safe
without a lock.

The ledger is strictly observational: nothing reads it during the
sweep, and a sweep run with the recorder on produces a bit-identical
``results`` section to one run with it off (CI enforces this).

Three consumers sit on top:

* :func:`aggregate` folds a ledger into a wall-clock breakdown —
  per-phase totals (simulate / cache / queue / collect / retry waste /
  retry wait), timeline coverage, top-N slowest cells, cache hit rate
  — rendered by ``repro report``;
* :class:`SweepProgress` is a live listener on parent-side events:
  done/total, running cells, hit rate, and an EMA-based ETA, printed
  through :mod:`repro.obs.log` (``sweep --progress``);
* :func:`repro.obs.export.ledger_chrome_trace` renders the merged
  ledger as a wall-clock Chrome trace, one track per worker process.

Event vocabulary (the ``ev`` field)
-----------------------------------
``sweep_begin``/``sweep_end``   parent: one sweep's bounds and totals
``cache_hit``/``cache_miss``    parent: cache lookup (+ its wall_s)
``cache_store``                 parent: result published to the cache
``dispatch``                    parent: cell handed to a worker slot
``attempt_start``/``attempt_end``  worker: one attempt's bounds
``collect``                     parent: completed result received
``retry``/``timeout``/``crash`` parent: fault-tolerant executor events
``quarantine``                  parent: cell abandoned after retries
``checkpoint``                  parent: periodic progress waypoint
``profile``                     worker: pstats file spooled for a cell

Every record carries ``t`` (unix seconds, comparable across
processes), ``pid``, and ``ev``; the rest is per-type payload.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..ioutil import append_jsonl

#: Ledger schema identifier, stamped on the ``sweep_begin`` record.
LEDGER_SCHEMA = "repro.ledger/1"

# Event types ----------------------------------------------------------
SWEEP_BEGIN = "sweep_begin"
SWEEP_END = "sweep_end"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
CACHE_STORE = "cache_store"
DISPATCH = "dispatch"
ATTEMPT_START = "attempt_start"
ATTEMPT_END = "attempt_end"
COLLECT = "collect"
RETRY = "retry"
TIMEOUT = "timeout"
CRASH = "crash"
QUARANTINE = "quarantine"
CHECKPOINT = "checkpoint"
PROFILE = "profile"

EVENT_TYPES = frozenset(
    {
        SWEEP_BEGIN, SWEEP_END, CACHE_HIT, CACHE_MISS, CACHE_STORE,
        DISPATCH, ATTEMPT_START, ATTEMPT_END, COLLECT, RETRY, TIMEOUT,
        CRASH, QUARANTINE, CHECKPOINT, PROFILE,
    }
)

#: Emit a ``checkpoint`` waypoint every N completed cells.
CHECKPOINT_EVERY = 25


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
class SweepLedger:
    """Parent-side ledger writer with in-process listeners.

    ``path=None`` is the in-memory mode: events still reach listeners
    (live progress) but nothing is written to disk and worker
    processes — which only ever see :attr:`path` — record nothing. With a path, every parent event is
    appended to the file *and* delivered to listeners; worker events
    go straight to the file via :func:`worker_emit` and are only seen
    again by readers.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = str(path) if path is not None else None
        self.events: List[Dict[str, Any]] = []
        self._listeners: List[Callable[[Dict[str, Any]], None]] = []
        if self.path is not None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)

    def add_listener(self, listener: Callable[[Dict[str, Any]], None]) -> None:
        self._listeners.append(listener)

    def emit(self, ev: str, **fields: Any) -> Dict[str, Any]:
        record: Dict[str, Any] = {"t": time.time(), "pid": os.getpid(), "ev": ev}
        record.update(fields)
        self.events.append(record)
        if self.path is not None:
            append_jsonl(self.path, record)
        for listener in self._listeners:
            listener(record)
        return record


def worker_emit(path: Optional[str], ev: str, **fields: Any) -> None:
    """One event from a worker process (no listeners, file only)."""
    if path is None:
        return
    record: Dict[str, Any] = {"t": time.time(), "pid": os.getpid(), "ev": ev}
    record.update(fields)
    append_jsonl(path, record)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def read_ledger(path: str) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Parse a ledger file; returns ``(events, problems)``.

    A torn *final* line — the one legal corruption an ``O_APPEND``
    writer killed mid-record can produce — is dropped with a problem
    note rather than an exception. Torn or unparseable *interior*
    lines and unknown event types are also reported; the surviving
    events are still returned so a damaged ledger degrades to a
    partial report instead of no report.
    """
    events: List[Dict[str, Any]] = []
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    # A well-formed ledger ends with "\n", so split leaves a final "".
    if lines and lines[-1] == "":
        lines.pop()
    elif lines:
        problems.append(
            f"line {len(lines)}: truncated record (writer killed "
            "mid-append); dropped"
        )
        lines.pop()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            problems.append(f"line {number}: unparseable record; dropped")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {number}: record is not an object; dropped")
            continue
        ev = record.get("ev")
        if ev not in EVENT_TYPES:
            problems.append(f"line {number}: unknown event type {ev!r}")
        events.append(record)
    return events, problems


# ----------------------------------------------------------------------
# Live progress
# ----------------------------------------------------------------------
class SweepProgress:
    """Listener turning parent-side ledger events into live progress.

    Tracks done/total, in-flight cells, cache hit rate, and an ETA
    from an exponential moving average of executed-cell wall times
    (cache hits are excluded from the EMA — they would drive the ETA
    to zero while uncached work remains). Attach via
    :meth:`SweepLedger.add_listener`; pass ``log`` to narrate.
    """

    #: EMA smoothing factor: ~the last 5 cells dominate.
    ALPHA = 0.35

    #: Narration is throttled to one line per interval (0 = every event).
    MIN_LOG_INTERVAL_S = 1.0

    def __init__(
        self,
        log: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._log = log
        self._clock = clock
        self._last_logged = float("-inf")
        self.total = 0
        self.jobs = 1
        self.executed = 0
        self.cached = 0
        self.quarantined = 0
        self.running = 0
        self.ema_cell_s: Optional[float] = None

    # -- event feed -----------------------------------------------------
    def __call__(self, record: Dict[str, Any]) -> None:
        ev = record.get("ev")
        if ev == SWEEP_BEGIN:
            self.total = int(record.get("cells", 0))
            self.jobs = max(1, int(record.get("jobs", 1)))
        elif ev == CACHE_HIT:
            self.cached += 1
            self._narrate()
        elif ev == DISPATCH:
            self.running += 1
        elif ev == COLLECT:
            self.running = max(0, self.running - 1)
            self.executed += 1
            wall = float(record.get("wall_s", 0.0))
            if self.ema_cell_s is None:
                self.ema_cell_s = wall
            else:
                self.ema_cell_s += self.ALPHA * (wall - self.ema_cell_s)
            self._narrate()
        elif ev == QUARANTINE:
            self.running = max(0, self.running - 1)
            self.quarantined += 1
            self._narrate()
        elif ev == SWEEP_END:
            self._narrate(force=True)

    # -- derived state --------------------------------------------------
    @property
    def done(self) -> int:
        return self.executed + self.cached + self.quarantined

    @property
    def hit_rate(self) -> Optional[float]:
        looked_up = self.executed + self.cached
        if looked_up == 0:
            return None
        return self.cached / looked_up

    def eta_s(self) -> Optional[float]:
        """Remaining wall time, assuming EMA-cost cells on all workers."""
        if self.ema_cell_s is None or self.total == 0:
            return None
        remaining = max(0, self.total - self.done)
        return remaining * self.ema_cell_s / self.jobs

    # -- narration ------------------------------------------------------
    def _narrate(self, force: bool = False) -> None:
        if self._log is None:
            return
        now = self._clock()
        if not force and now - self._last_logged < self.MIN_LOG_INTERVAL_S:
            return
        self._last_logged = now
        parts = [f"progress: {self.done}/{self.total} cells"]
        if self.running:
            parts.append(f"{self.running} running")
        rate = self.hit_rate
        if rate is not None:
            parts.append(f"hit rate {rate:.0%}")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        eta = self.eta_s()
        if eta is not None and self.done < self.total:
            parts.append(f"eta {_fmt_duration(eta)}")
        self._log(", ".join(parts))


def _fmt_duration(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


# ----------------------------------------------------------------------
# Aggregation (the `repro report` engine)
# ----------------------------------------------------------------------
#: Report schema identifier (the --json payload).
REPORT_SCHEMA = "repro.ledger-report/1"

#: Wall-clock phase categories, in render order. ``simulate`` is the
#: useful work; everything else is harness overhead or waste.
PHASES = (
    "simulate",      # successful attempts' in-worker wall time
    "cache",         # lookups + stores in the parent
    "queue",         # dispatch -> first attempt_start gap
    "collect",       # attempt_end -> parent collect gap (IPC)
    "retry_wait",    # backoff the executor deliberately waited out
    "retry_waste",   # failed attempts' wall time (error/crash/timeout)
)


def aggregate(events: Sequence[Dict[str, Any]], top: int = 10) -> Dict[str, Any]:
    """Fold ledger events into the wall-clock report payload.

    Coverage is the honesty metric: the union of all intervals the
    ledger *explains* (cache operations; each cell's dispatch-to-
    collect or dispatch-to-quarantine span) divided by the sweep's
    measured wall. A ledger missing an emission point shows up as a
    coverage drop, not as a silently wrong breakdown — the CI
    report-smoke job holds it at >= 95 %.
    """
    begin = next((e for e in events if e.get("ev") == SWEEP_BEGIN), None)
    end = next((e for e in reversed(events) if e.get("ev") == SWEEP_END), None)

    phases = {phase: 0.0 for phase in PHASES}
    intervals: List[Tuple[float, float]] = []

    if end is not None:
        # Worker shutdown, measured by the executor and stamped on the
        # terminal record; counts as collection overhead.
        teardown = float(end.get("teardown_s", 0.0))
        if teardown > 0:
            phases["collect"] += teardown
            intervals.append((float(end["t"]) - teardown, float(end["t"])))

    dispatch_t: Dict[int, float] = {}
    start_t: Dict[Tuple[int, int], float] = {}
    end_t: Dict[int, float] = {}
    cells: Dict[int, Dict[str, Any]] = {}
    profiles: List[str] = []
    cache_hits = 0
    cache_misses = 0
    retries = 0
    quarantined: List[Dict[str, Any]] = []
    worker_pids = set()

    def cell(index: int) -> Dict[str, Any]:
        return cells.setdefault(
            index,
            {"index": index, "workload": None, "wall_s": 0.0,
             "attempts": 0, "cached": False, "outcome": "executed"},
        )

    for event in events:
        ev = event.get("ev")
        t = float(event.get("t", 0.0))
        index = event.get("cell")
        if ev in (CACHE_HIT, CACHE_MISS, CACHE_STORE):
            wall = float(event.get("wall_s", 0.0))
            phases["cache"] += wall
            intervals.append((t - wall, t))
            if ev == CACHE_HIT:
                cache_hits += 1
                record = cell(index)
                record.update(
                    workload=event.get("workload", record["workload"]),
                    wall_s=wall, cached=True, outcome="cached",
                )
            elif ev == CACHE_MISS:
                cache_misses += 1
        elif ev == DISPATCH:
            dispatch_t.setdefault(index, t)
            record = cell(index)
            if event.get("workload"):
                record["workload"] = event["workload"]
        elif ev == ATTEMPT_START:
            worker_pids.add(event.get("pid"))
            start_t[(index, int(event.get("attempt", 1)))] = t
            cell(index)["attempts"] += 1
            if index in dispatch_t and int(event.get("attempt", 1)) == 1:
                phases["queue"] += max(0.0, t - dispatch_t[index])
        elif ev == ATTEMPT_END:
            worker_pids.add(event.get("pid"))
            wall = float(event.get("wall_s", 0.0))
            if event.get("ok", True):
                phases["simulate"] += wall
                end_t[index] = t
            else:
                phases["retry_waste"] += wall
        elif ev == COLLECT:
            record = cell(index)
            record["workload"] = event.get("workload", record["workload"])
            record["wall_s"] = float(event.get("wall_s", 0.0))
            if index in end_t:
                phases["collect"] += max(0.0, t - end_t[index])
            if index in dispatch_t:
                intervals.append((dispatch_t[index], t))
        elif ev == RETRY:
            retries += 1
            phases["retry_wait"] += float(event.get("wait_s", 0.0))
        elif ev in (TIMEOUT, CRASH):
            # The attempt died without writing an attempt_end; the
            # parent measured how long it was allowed to run.
            phases["retry_waste"] += float(event.get("wall_s", 0.0))
        elif ev == QUARANTINE:
            record = cell(index)
            record["outcome"] = "quarantined"
            record["workload"] = event.get("workload", record["workload"])
            quarantined.append(
                {"cell": index, "workload": event.get("workload"),
                 "attempts": event.get("attempts")}
            )
            if index in dispatch_t:
                intervals.append((dispatch_t[index], t))
        elif ev == PROFILE:
            spool = event.get("spool")
            if spool:
                profiles.append(spool)

    wall_s = None
    coverage = None
    if begin is not None and end is not None:
        wall_s = max(0.0, float(end["t"]) - float(begin["t"]))
        coverage = _union_length(intervals, float(begin["t"]), float(end["t"]))
        coverage = (coverage / wall_s) if wall_s > 0 else 1.0

    looked_up = cache_hits + cache_misses
    slowest = sorted(
        (record for record in cells.values() if not record["cached"]),
        key=lambda record: -record["wall_s"],
    )
    accounted = sum(phases.values())
    executed = sum(
        1
        for record in cells.values()
        if not record["cached"] and record["outcome"] == "executed"
    )
    return {
        "schema": REPORT_SCHEMA,
        "cells": int(begin.get("cells", len(cells))) if begin else len(cells),
        "jobs": int(begin.get("jobs", 1)) if begin else 1,
        "executed": executed,
        "wall_s": wall_s,
        "coverage": coverage,
        "phases": phases,
        "accounted_s": accounted,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": (cache_hits / looked_up) if looked_up else None,
        },
        "retries": retries,
        "quarantined": quarantined,
        "waste_s": phases["retry_waste"] + phases["retry_wait"],
        "workers": sorted(pid for pid in worker_pids if pid is not None),
        "slowest_cells": [
            {
                "cell": record["index"],
                "workload": record["workload"],
                "wall_s": record["wall_s"],
                "attempts": record["attempts"],
                "outcome": record["outcome"],
            }
            for record in slowest[: max(0, top)]
        ],
        "profiles": profiles,
    }


def _union_length(
    intervals: Sequence[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Total length of the union of ``intervals`` clamped to [lo, hi]."""
    clamped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cursor = lo
    for a, b in clamped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total
