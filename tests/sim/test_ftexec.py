"""Tests for the fault-tolerant executor's policy machinery (sim/ftexec.py).

Everything time-dependent runs against :class:`FakeClock` — backoff,
timeout, and quarantine behaviour is asserted without a single
wall-clock sleep.
"""

import pytest

from repro.errors import ConfigError
from repro.faults.generator import FailureModel
from repro.runtime.time_model import DEFAULT_COST_MODEL
from repro.sim.chaos import ChaosConfig
from repro.sim.ftexec import (
    FakeClock,
    FaultToleranceReport,
    QuarantinedCell,
    RetryPolicy,
    run_cells_fault_tolerant,
)
from repro.sim.machine import RunConfig


def tiny_cells(n=2):
    return [
        (index, RunConfig(workload="luindex", scale=0.05, seed=index,
                          failure_model=FailureModel()))
        for index in range(n)
    ]


class TestRetryPolicy:
    def test_no_delay_before_first_attempt(self):
        policy = RetryPolicy()
        assert policy.delay(0, 1) == 0.0

    def test_deterministic(self):
        a = RetryPolicy(seed=3)
        b = RetryPolicy(seed=3)
        for cell in range(4):
            for attempt in range(2, 6):
                assert a.delay(cell, attempt) == b.delay(cell, attempt)

    def test_exponential_growth_within_jitter(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1000.0, jitter=0.25)
        for attempt in range(2, 8):
            base = 2 ** (attempt - 2)
            delay = policy.delay(7, attempt)
            assert base * 0.75 <= delay <= base * 1.25

    def test_delay_caps_at_max(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=4.0, jitter=0.0)
        assert policy.delay(0, 10) == 4.0

    def test_jitter_zero_is_exact(self):
        policy = RetryPolicy(base_delay_s=0.5, jitter=0.0)
        assert policy.delay(0, 2) == 0.5
        assert policy.delay(0, 3) == 1.0

    def test_cells_desynchronized(self):
        # Jitter must spread cells, or every retry thunders at once.
        policy = RetryPolicy(jitter=0.25)
        delays = {policy.delay(cell, 2) for cell in range(16)}
        assert len(delays) > 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)


class TestFakeClock:
    def test_sleep_advances_and_records(self):
        clock = FakeClock(start=10.0)
        clock.sleep(0.5)
        clock.sleep(0.25)
        assert clock.now() == pytest.approx(10.75)
        assert clock.sleeps == [0.5, 0.25]

    def test_advance_without_recording(self):
        clock = FakeClock()
        clock.advance(3.0)
        assert clock.now() == 3.0
        assert clock.sleeps == []


class TestFaultToleranceReport:
    def test_clean_until_anything_happens(self):
        report = FaultToleranceReport()
        assert report.clean
        report.retries += 1
        assert not report.clean

    def test_merge_accumulates(self):
        a = FaultToleranceReport(retries=1, timeouts=2)
        b = FaultToleranceReport(worker_crashes=3, worker_errors=4)
        b.quarantined.append(
            QuarantinedCell(index=0, workload="w", description="d", attempts=2)
        )
        a.merge(b)
        assert (a.retries, a.timeouts, a.worker_crashes, a.worker_errors) == \
            (1, 2, 3, 4)
        assert len(a.quarantined) == 1

    def test_to_dict_shape(self):
        report = FaultToleranceReport()
        report.quarantined.append(
            QuarantinedCell(
                index=5, workload="w", description="d", attempts=3,
                failures=["attempt 1: crash: killed (SIGKILL)"],
            )
        )
        payload = report.to_dict()
        assert set(payload) == {
            "retries", "timeouts", "worker_crashes", "worker_errors",
            "quarantined",
        }
        assert payload["quarantined"][0]["config"] == "d"
        assert payload["quarantined"][0]["attempts"] == 3


class TestExecutorWithFakeClock:
    def test_clean_run_completes_every_cell(self):
        clock = FakeClock()
        cells = tiny_cells(2)
        completions, report, _ = run_cells_fault_tolerant(
            cells, DEFAULT_COST_MODEL, jobs=2, policy=RetryPolicy(),
            clock=clock,
        )
        assert report.clean
        assert sorted(index for index, _, _ in completions) == [0, 1]
        for index, result, wall_s in completions:
            assert result.config == dict(cells)[index]
            assert wall_s >= 0.0

    def test_raise_chaos_quarantines_on_fake_time(self):
        # p=1.0 injures every attempt; with 2 attempts both cells end
        # up quarantined, and every backoff wait lands on the fake
        # clock instead of stalling the test.
        clock = FakeClock()
        chaos = ChaosConfig(mode="raise", probability=1.0)
        policy = RetryPolicy(max_attempts=2, base_delay_s=4.0, jitter=0.0)
        completions, report, _ = run_cells_fault_tolerant(
            tiny_cells(2), DEFAULT_COST_MODEL, jobs=2, policy=policy,
            clock=clock, chaos=chaos,
        )
        assert completions == []
        assert report.worker_errors == 4  # 2 cells x 2 attempts
        assert report.retries == 2
        assert len(report.quarantined) == 2
        for cell in report.quarantined:
            assert cell.attempts == 2
            assert all("ChaosError" in entry for entry in cell.failures)
        # The 4-second backoffs were slept on the fake clock.
        assert clock.now() >= 4.0

    def test_timeout_enforced_on_fake_time(self):
        # The fake clock races past the budget while the worker is
        # still computing, so the straggler is killed and (with one
        # allowed attempt) quarantined as a timeout.
        clock = FakeClock()
        cells = [
            (0, RunConfig(workload="luindex", scale=1.0, seed=0,
                          failure_model=FailureModel()))
        ]
        policy = RetryPolicy(max_attempts=1)
        completions, report, _ = run_cells_fault_tolerant(
            cells, DEFAULT_COST_MODEL, jobs=1, policy=policy,
            timeout_s=0.05, clock=clock,
        )
        assert completions == []
        assert report.timeouts == 1
        assert len(report.quarantined) == 1
        assert "timeout" in report.quarantined[0].failures[0]


class TestLedgerEmission:
    def test_clean_run_tells_a_complete_story(self, tmp_path):
        from repro.obs.ledger import SweepLedger, read_ledger

        ledger = SweepLedger(str(tmp_path / "ledger.jsonl"))
        run_cells_fault_tolerant(
            tiny_cells(2), DEFAULT_COST_MODEL, jobs=2,
            policy=RetryPolicy(), clock=FakeClock(), ledger=ledger,
        )
        events, problems = read_ledger(ledger.path)
        assert problems == []
        by_kind = {}
        for event in events:
            by_kind.setdefault(event["ev"], []).append(event)
        # Parent side: one dispatch + one collect per cell...
        assert len(by_kind["dispatch"]) == 2
        assert len(by_kind["collect"]) == 2
        # ...and worker side: matching attempt bounds from other pids.
        assert len(by_kind["attempt_start"]) == 2
        assert len(by_kind["attempt_end"]) == 2
        parent_pid = by_kind["dispatch"][0]["pid"]
        assert all(e["pid"] != parent_pid for e in by_kind["attempt_start"])
        assert all(e["ok"] for e in by_kind["attempt_end"])

    def test_chaos_emits_retry_and_quarantine(self, tmp_path):
        from repro.obs.ledger import SweepLedger, read_ledger
        from repro.sim.chaos import ChaosConfig

        ledger = SweepLedger(str(tmp_path / "ledger.jsonl"))
        chaos = ChaosConfig(mode="raise", probability=1.0)
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.01, jitter=0.0)
        run_cells_fault_tolerant(
            tiny_cells(1), DEFAULT_COST_MODEL, jobs=1, policy=policy,
            clock=FakeClock(), chaos=chaos, ledger=ledger,
        )
        events, problems = read_ledger(ledger.path)
        assert problems == []
        kinds = [e["ev"] for e in events]
        assert kinds.count("retry") == 1
        assert kinds.count("quarantine") == 1
        assert "collect" not in kinds
        retry = next(e for e in events if e["ev"] == "retry")
        assert retry["attempt"] == 2
        assert retry["wait_s"] > 0
        quarantine = next(e for e in events if e["ev"] == "quarantine")
        assert quarantine["attempts"] == 2
        # Failed attempts still close their attempt spans (ok: false).
        ends = [e for e in events if e["ev"] == "attempt_end"]
        assert ends and all(e["ok"] is False for e in ends)

    def test_no_ledger_means_no_emission(self):
        completions, report, _ = run_cells_fault_tolerant(
            tiny_cells(1), DEFAULT_COST_MODEL, jobs=1,
            policy=RetryPolicy(), clock=FakeClock(), ledger=None,
        )
        assert report.clean
        assert len(completions) == 1


def attempt_pids(path):
    from repro.obs.ledger import read_ledger

    events, problems = read_ledger(path)
    assert problems == []
    return {e["pid"] for e in events if e["ev"] == "attempt_start"}


class TestPersistentWorkers:
    """One long-lived worker per job slot; a dead one is replaced."""

    GRID = [cell for _, cell in tiny_cells(6)]

    def test_workers_are_reused_across_cells(self, tmp_path):
        from repro.obs.ledger import SweepLedger
        from repro.sim.parallel import run_grid

        ledger = SweepLedger(str(tmp_path / "ledger.jsonl"))
        results, _ = run_grid(
            self.GRID, jobs=2, retry=RetryPolicy(), ledger=ledger
        )
        assert len(results) == 6
        assert len(attempt_pids(ledger.path)) <= 2

    def test_killed_worker_is_replaced(self, tmp_path):
        from repro.obs.ledger import SweepLedger
        from repro.sim.cache import result_to_dict
        from repro.sim.parallel import run_grid

        def hits(chaos):
            return [
                attempt
                for cell in range(len(self.GRID))
                for attempt in (1, 2)
                if chaos.should_injure(cell, attempt)
            ]

        # A seed that kills exactly one cell's first attempt and
        # spares every other attempt.
        chaos = next(
            chaos
            for chaos in (ChaosConfig("kill", 0.2, seed) for seed in range(1000))
            if hits(chaos) == [1]
        )
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.01)
        clean, _ = run_grid(self.GRID, jobs=2)
        ledger = SweepLedger(str(tmp_path / "ledger.jsonl"))
        disturbed, stats = run_grid(
            self.GRID, jobs=2, retry=policy, chaos=chaos, ledger=ledger
        )
        assert [result_to_dict(r) for r in disturbed] == \
            [result_to_dict(r) for r in clean]
        assert stats.fault_tolerance.worker_crashes == 1
        assert stats.fault_tolerance.retries == 1
        assert len(attempt_pids(ledger.path)) == 3


class TestDefaultPolicy:
    def test_failing_cell_quarantined_without_retry(self):
        # No retry policy: a raising cell gets one attempt and is
        # quarantined; the sweep still returns.
        from repro.sim.parallel import run_grid

        grid = [cell for _, cell in tiny_cells(2)]
        results, stats = run_grid(
            grid, jobs=2, chaos=ChaosConfig("raise", 1.0)
        )
        report = stats.fault_tolerance
        assert results == []
        assert report.retries == 0
        assert report.worker_errors == 2
        assert [cell.attempts for cell in report.quarantined] == [1, 1]


class TestOrphanSafety:
    """A worker whose parent goes away exits 0, without a traceback."""

    @staticmethod
    def start_worker():
        import multiprocessing

        from repro.sim.ftexec import _worker_main

        context = multiprocessing.get_context()
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(child_end, [parent_end], DEFAULT_COST_MODEL, None, None,
                  None),
            daemon=True,  # a failing test must not hang interpreter exit
        )
        process.start()
        child_end.close()
        return process, parent_end

    def test_exits_quietly_when_idle_pipe_closes(self, capfd):
        process, parent_end = self.start_worker()
        parent_end.close()
        process.join(30)
        assert process.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err

    def test_exits_quietly_when_reply_pipe_is_broken(self, capfd):
        process, parent_end = self.start_worker()
        parent_end.send(tiny_cells(1)[0] + (1,))
        parent_end.close()  # the reply has nowhere to go
        process.join(30)
        assert process.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err
