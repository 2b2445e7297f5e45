"""Parallel execution of grid cells: persistent workers that own retry,
timeout and quarantine.

Every uncached cell that :func:`~repro.sim.parallel.run_grid` does not
run in-process comes here. The executor keeps one long-lived worker
process per job slot, so worker-lifetime caches (the min-heap
estimate, ...) serve cell after cell:

* each worker reads ``(index, config, attempt)`` tasks from its own
  pipe and sends back ``(ok, RunResult | error text, wall_s)``; the
  parent blocks on every busy worker's pipe and process sentinel;
* an exception inside the cell is an *error* (the worker lives on), a
  worker that dies without replying is a *crash* (``-SIGKILL`` is
  detected specifically), and an attempt exceeding the per-cell budget
  is a *timeout* (the parent terminates, then kills, the straggler);
  a dead or stopped worker is replaced by a fresh one;
* every failure is retried with exponential backoff and deterministic
  jitter — :meth:`RetryPolicy.delay` is a pure function of (seed, cell,
  attempt), so scheduling is reproducible and unit-testable;
* a cell that fails ``max_attempts`` times is **quarantined**: the
  sweep completes without it and reports the partial result instead of
  aborting (the Heterogeneous-Reliability stance — degrade, don't die);
* a worker whose parent dies sees its pipe close and exits quietly, so
  a killed sweep leaves no orphans behind.

Time is injectable: the executor only ever reads the clock, sleeps and
waits through a :class:`MonotonicClock`-shaped object, so the
retry/backoff/timeout policy is tested against :class:`FakeClock` with
zero wall-clock sleeps in CI.
"""

from __future__ import annotations

import multiprocessing
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..obs.ledger import (
    ATTEMPT_END,
    ATTEMPT_START,
    COLLECT,
    CRASH,
    DISPATCH,
    PROFILE,
    QUARANTINE,
    RETRY,
    TIMEOUT,
    SweepLedger,
    worker_emit,
)
from ..obs.profile import profile_call
from ..obs.profile import spool_path as _profile_spool_path
from ..runtime.time_model import CostModel
from .chaos import ChaosConfig, maybe_injure
from .machine import RunConfig, RunResult, run_benchmark

#: How long an idle worker gets to exit on its own once its pipe closes
#: before it is terminated (real seconds).
STOP_GRACE_S = 1.0


# ----------------------------------------------------------------------
# Injectable time
# ----------------------------------------------------------------------
class MonotonicClock:
    """Wall time for production: ``time.monotonic``, ``time.sleep`` and
    a real blocking wait on worker handles."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def wait(self, handles: list, timeout: Optional[float]) -> list:
        """The ready handles, after at most ``timeout`` (None = forever)."""
        # Imported on first use, so in-process runs never load it.
        from multiprocessing.connection import wait

        return wait(handles, timeout)


class FakeClock:
    """Deterministic time for tests: sleeping *is* advancing.

    Records every sleep so tests can assert the executor's pacing
    (backoff waits, timeout waits) without a single wall-clock stall.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self.sleeps: List[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self._now += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        self._now += seconds

    def wait(self, handles: list, timeout: Optional[float]) -> list:
        """Poll the handles; if none is ready, ``timeout`` fake seconds
        pass. Without a timeout only a worker can end the wait, so it
        blocks for real."""
        from multiprocessing.connection import wait

        if timeout is None:
            return wait(handles)
        ready = wait(handles, 0)
        if not ready:
            self.sleep(timeout)
        return ready


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attempt numbering starts at 1; the delay *before* attempt ``n`` is
    ``base * 2**(n-2)`` capped at ``max_delay_s``, then jittered by a
    factor drawn from ``[1 - jitter, 1 + jitter]``. The draw is a pure
    function of (seed, cell index, attempt) — two runs of the same
    sweep back off identically, and no two cells thundering-herd on the
    same schedule.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    max_delay_s: float = 8.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigError("delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")

    def delay(self, cell_index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (>= 2) of ``cell_index``."""
        if attempt < 2:
            return 0.0
        base = min(self.max_delay_s, self.base_delay_s * 2 ** (attempt - 2))
        rng = random.Random((self.seed << 32) ^ (cell_index << 8) ^ attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


#: The policy when none is given: one attempt per cell, no retry.
SINGLE_ATTEMPT = RetryPolicy(max_attempts=1)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class QuarantinedCell:
    """A cell the sweep gave up on, with its full failure history."""

    index: int
    workload: str
    description: str
    attempts: int
    failures: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "workload": self.workload,
            "config": self.description,
            "attempts": self.attempts,
            "failures": list(self.failures),
        }


@dataclass
class FaultToleranceReport:
    """What the executor survived during one sweep."""

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    worker_errors: int = 0
    quarantined: List[QuarantinedCell] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.retries == 0
            and self.timeouts == 0
            and self.worker_crashes == 0
            and self.worker_errors == 0
            and not self.quarantined
        )

    def merge(self, other: "FaultToleranceReport") -> None:
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.worker_crashes += other.worker_crashes
        self.worker_errors += other.worker_errors
        self.quarantined.extend(other.quarantined)

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "worker_errors": self.worker_errors,
            "quarantined": [cell.to_dict() for cell in self.quarantined],
        }


# ----------------------------------------------------------------------
# One attempt (in-process route and workers alike)
# ----------------------------------------------------------------------
def run_attempt(
    index: int,
    config: RunConfig,
    attempt: int,
    cost_model: CostModel,
    ledger_path: Optional[str] = None,
    profile_dir: Optional[str] = None,
    chaos: Optional[ChaosConfig] = None,
) -> Tuple[RunResult, float]:
    """Run one attempt at one cell; returns ``(result, wall_s)``.

    With a ``ledger_path`` the attempt brackets itself with
    ``attempt_start``/``attempt_end`` flight-recorder events (a killed
    worker leaves only the start — the parent's ``crash`` event closes
    the story). ``profile_dir`` arms cProfile around the benchmark. The
    chaos hook fires after ``attempt_start``, so from the parent's view
    the worker dies mid-cell. Exceptions propagate to the caller.
    """
    worker_emit(
        ledger_path, ATTEMPT_START, cell=index, attempt=attempt,
        workload=config.workload,
    )
    started = time.perf_counter()
    ok = False
    try:
        maybe_injure(chaos, index, attempt)
        if profile_dir is not None:
            spool = _profile_spool_path(profile_dir, index, attempt)
            result = profile_call(spool, run_benchmark, config, cost_model)
            worker_emit(
                ledger_path, PROFILE, cell=index, attempt=attempt, spool=spool
            )
        else:
            result = run_benchmark(config, cost_model)
        ok = True
    finally:
        wall_s = time.perf_counter() - started
        worker_emit(
            ledger_path, ATTEMPT_END, cell=index, attempt=attempt, ok=ok,
            wall_s=wall_s, workload=config.workload,
        )
    return result, wall_s


def _worker_main(
    conn,
    inherited: Sequence,
    cost_model: CostModel,
    chaos: Optional[ChaosConfig],
    ledger_path: Optional[str],
    profile_dir: Optional[str],
) -> None:
    """Serve tasks until the parent closes the pipe (or dies).

    ``inherited`` are the parent's ends of every worker pipe, copied in
    by fork; holding them would keep those pipes open past the parent's
    death. Ctrl-C is the parent's to handle: it stops the workers.
    """
    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if chaos is None:
        chaos = ChaosConfig.from_env()
    while True:
        try:
            index, config, attempt = conn.recv()
        except (EOFError, ConnectionError):
            return
        started = time.perf_counter()
        try:
            result, wall_s = run_attempt(
                index, config, attempt, cost_model, ledger_path, profile_dir,
                chaos,
            )
            reply = (True, result, wall_s)
        except Exception as exc:  # reported, classified by the parent
            reply = (
                False,
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - started,
            )
        try:
            conn.send(reply)
        except ConnectionError:
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Worker:
    __slots__ = ("process", "conn", "task", "started")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: ``(index, config, attempt)`` in flight, or None when idle.
        self.task: Optional[Tuple[int, RunConfig, int]] = None
        self.started = 0.0


def _stop(worker: _Worker, grace: float) -> None:
    """Close the worker's pipe; terminate, then kill, if it lingers."""
    worker.conn.close()
    process = worker.process
    process.join(grace)
    if process.exitcode is None:
        process.terminate()
        process.join(1.0)
        if process.exitcode is None:
            process.kill()
            process.join()


def run_cells_fault_tolerant(
    pending: Sequence[Tuple[int, RunConfig]],
    cost_model: CostModel,
    jobs: int,
    policy: RetryPolicy,
    timeout_s: Optional[float] = None,
    clock: Optional[MonotonicClock] = None,
    progress: Optional[Callable[[str], None]] = None,
    chaos: Optional[ChaosConfig] = None,
    describe: Optional[Callable[[RunConfig], str]] = None,
    ledger: Optional[SweepLedger] = None,
    profile_dir: Optional[str] = None,
    on_complete: Optional[Callable[[int, RunResult, float], None]] = None,
) -> Tuple[List[Tuple[int, RunResult, float]], FaultToleranceReport, float]:
    """Run every cell to completion or quarantine; never aborts the sweep.

    Returns completions as ``(index, result, wall_s)`` in arbitrary
    order (the caller re-sorts by index), the survival report, and the
    wall seconds spent shutting the workers down. ``on_complete`` is
    called with each completion as it arrives. ``chaos`` is only ever
    armed by tests and the CI chaos-smoke job.

    With a ``ledger``, the parent records dispatch/collect plus every
    retry, timeout, crash and quarantine as flight-recorder events;
    workers append their own attempt start/end records to the ledger's
    file. ``profile_dir`` arms per-attempt cProfile spools.
    """
    clock = clock or MonotonicClock()
    describe = describe or repr
    report = FaultToleranceReport()
    completions: List[Tuple[int, RunResult, float]] = []
    slots = max(1, min(jobs, len(pending)))
    ledger_path = ledger.path if ledger is not None else None
    # The platform's default start method (fork on Linux): workers
    # inherit the parent's imported modules, so a worker costs no
    # interpreter start-up and in-process instrumentation reaches it.
    context = multiprocessing.get_context()

    def _emit(ev: str, **fields) -> None:
        if ledger is not None:
            ledger.emit(ev, **fields)

    ready: List[Tuple[int, RunConfig, int]] = [
        (index, config, 1) for index, config in pending
    ]
    ready.reverse()  # pop() serves cells in input order
    delayed: List[Tuple[float, int, RunConfig, int]] = []
    failures: Dict[int, List[str]] = {}
    workers: List[_Worker] = []

    def spawn() -> _Worker:
        parent_end, child_end = context.Pipe()
        inherited = [worker.conn for worker in workers] + [parent_end]
        process = context.Process(
            target=_worker_main,
            args=(child_end, inherited, cost_model, chaos, ledger_path,
                  profile_dir),
            daemon=True,
        )
        process.start()
        child_end.close()
        worker = _Worker(process, parent_end)
        workers.append(worker)
        return worker

    def retire(worker: _Worker, grace: float) -> None:
        workers.remove(worker)
        _stop(worker, grace)

    def fail(task: Tuple[int, RunConfig, int], kind: str, detail: str) -> None:
        index, config, attempt = task
        history = failures.setdefault(index, [])
        history.append(f"attempt {attempt}: {kind}: {detail}")
        if attempt >= policy.max_attempts:
            report.quarantined.append(
                QuarantinedCell(
                    index=index,
                    workload=config.workload,
                    description=describe(config),
                    attempts=attempt,
                    failures=list(history),
                )
            )
            _emit(
                QUARANTINE, cell=index, workload=config.workload,
                attempts=attempt, kind=kind,
            )
            if progress is not None:
                progress(
                    f"QUARANTINED {config.workload} {describe(config)} "
                    f"after {attempt} attempts ({kind})"
                )
            return
        report.retries += 1
        next_attempt = attempt + 1
        wait = policy.delay(index, next_attempt)
        delayed.append((clock.now() + wait, index, config, next_attempt))
        _emit(
            RETRY, cell=index, workload=config.workload,
            attempt=next_attempt, wait_s=wait, kind=kind,
        )
        if progress is not None:
            progress(
                f"retrying {config.workload} {describe(config)} ({kind}; "
                f"attempt {next_attempt}/{policy.max_attempts} "
                f"in {wait:.2f}s)"
            )

    def assign(task: Tuple[int, RunConfig, int]) -> None:
        index, config, attempt = task
        if attempt == 1:
            _emit(DISPATCH, cell=index, workload=config.workload)
        idle = [worker for worker in workers if worker.task is None]
        worker = idle[0] if idle else spawn()
        try:
            worker.conn.send(task)
        except ConnectionError:
            # Died while idle: replace it; no attempt was lost.
            retire(worker, 0.0)
            worker = spawn()
            worker.conn.send(task)
        worker.task = task
        worker.started = clock.now()

    def collect(worker: _Worker) -> None:
        """The worker replied or died; classify the outcome."""
        task, worker.task = worker.task, None
        index, config, attempt = task
        try:
            ok, payload, wall = worker.conn.recv()
        except (EOFError, ConnectionError):
            retire(worker, STOP_GRACE_S)
            report.worker_crashes += 1
            exitcode = worker.process.exitcode
            if exitcode == -signal.SIGKILL:
                detail = "killed (SIGKILL)"
            elif exitcode is not None and exitcode < 0:
                detail = f"terminated by signal {-exitcode}"
            else:
                detail = f"exit code {exitcode}, no result returned"
            _emit(
                CRASH, cell=index, attempt=attempt,
                wall_s=max(0.0, clock.now() - worker.started), detail=detail,
            )
            fail(task, "crash", detail)
            return
        if not ok:
            report.worker_errors += 1
            fail(task, "error", payload)
            return
        completions.append((index, payload, wall))
        _emit(COLLECT, cell=index, workload=config.workload, wall_s=wall)
        if on_complete is not None:
            on_complete(index, payload, wall)

    def time_out(worker: _Worker) -> None:
        task, worker.task = worker.task, None
        retire(worker, 0.0)
        report.timeouts += 1
        _emit(
            TIMEOUT, cell=task[0], attempt=task[2],
            wall_s=max(0.0, clock.now() - worker.started),
        )
        fail(task, "timeout", f"exceeded {timeout_s:.1f}s cell budget")

    try:
        while True:
            now = clock.now()
            # Promote delayed retries whose backoff has elapsed.
            due = sorted(item for item in delayed if item[0] <= now)
            if due:
                delayed[:] = [item for item in delayed if item[0] > now]
                for _, index, config, attempt in due:
                    ready.append((index, config, attempt))
            while ready and (
                len(workers) < slots
                or any(worker.task is None for worker in workers)
            ):
                assign(ready.pop())
            busy = [worker for worker in workers if worker.task is not None]
            if not busy:
                if not delayed:
                    break
                # Everything is waiting out a backoff: jump to the next
                # due time instead of spinning.
                clock.sleep(max(0.0, min(item[0] for item in delayed) - now))
                continue
            deadlines = [item[0] for item in delayed]
            if timeout_s is not None:
                deadlines += [worker.started + timeout_s for worker in busy]
            wait = max(0.0, min(deadlines) - now) if deadlines else None
            handles = [worker.conn for worker in busy]
            handles += [worker.process.sentinel for worker in busy]
            signalled = clock.wait(handles, wait)
            for worker in busy:
                if worker.conn in signalled or worker.process.sentinel in signalled:
                    collect(worker)
                elif (
                    timeout_s is not None
                    and clock.now() - worker.started >= timeout_s
                ):
                    time_out(worker)
    finally:
        teardown_start = time.perf_counter()
        for worker in workers:
            _stop(worker, 0.0 if worker.task is not None else STOP_GRACE_S)
        teardown_s = time.perf_counter() - teardown_start

    return completions, report, teardown_s
