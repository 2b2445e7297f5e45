"""Sweep flight recorder: ledger writer/reader, progress, aggregation."""

import json

from repro.faults.generator import FailureModel
from repro.obs.ledger import (
    ATTEMPT_END,
    ATTEMPT_START,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_STORE,
    COLLECT,
    DISPATCH,
    LEDGER_SCHEMA,
    QUARANTINE,
    REPORT_SCHEMA,
    RETRY,
    SWEEP_BEGIN,
    SWEEP_END,
    SweepLedger,
    SweepProgress,
    aggregate,
    read_ledger,
    worker_emit,
)
from repro.sim.machine import RunConfig
from repro.sim.parallel import run_grid


class TestSweepLedger:
    def test_round_trips_through_file(self, tmp_path):
        path = tmp_path / "sweep.ledger.jsonl"
        ledger = SweepLedger(str(path))
        ledger.emit(SWEEP_BEGIN, schema=LEDGER_SCHEMA, cells=2, jobs=1)
        ledger.emit(SWEEP_END, cells=2, executed=2, cached=0)
        events, problems = read_ledger(str(path))
        assert problems == []
        assert [e["ev"] for e in events] == [SWEEP_BEGIN, SWEEP_END]
        assert all("t" in e and "pid" in e for e in events)

    def test_in_memory_mode_still_feeds_listeners(self):
        ledger = SweepLedger()
        seen = []
        ledger.add_listener(seen.append)
        record = ledger.emit(DISPATCH, cell=0)
        assert ledger.path is None
        assert seen == [record]
        assert ledger.events == [record]

    def test_worker_emit_appends_and_noops_without_path(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        worker_emit(None, ATTEMPT_START, cell=0)  # must not create a file
        assert not path.exists()
        worker_emit(str(path), ATTEMPT_START, cell=0, attempt=1)
        events, problems = read_ledger(str(path))
        assert problems == []
        assert events[0]["ev"] == ATTEMPT_START


class TestReadLedger:
    def test_torn_final_line_dropped_with_note(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = SweepLedger(str(path))
        ledger.emit(SWEEP_BEGIN, cells=1, jobs=1)
        ledger.emit(DISPATCH, cell=0)
        # Simulate a writer killed mid-append: no trailing newline.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"t": 1.0, "pid": 1, "ev": "col')
        events, problems = read_ledger(str(path))
        assert [e["ev"] for e in events] == [SWEEP_BEGIN, DISPATCH]
        assert any("truncated" in p for p in problems)

    def test_interior_damage_and_unknown_events_flagged(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        lines = [
            json.dumps({"t": 1.0, "pid": 1, "ev": SWEEP_BEGIN, "cells": 1}),
            "not json at all",
            json.dumps([1, 2]),
            json.dumps({"t": 2.0, "pid": 1, "ev": "warp_drive"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        events, problems = read_ledger(str(path))
        # The unknown-type record survives (flagged, not dropped).
        assert [e["ev"] for e in events] == [SWEEP_BEGIN, "warp_drive"]
        assert any("unparseable" in p for p in problems)
        assert any("not an object" in p for p in problems)
        assert any("unknown event type" in p for p in problems)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSweepProgress:
    def feed(self, progress, *events):
        for event in events:
            progress(event)

    def test_counts_and_eta(self):
        progress = SweepProgress()
        self.feed(
            progress,
            {"ev": SWEEP_BEGIN, "cells": 4, "jobs": 2},
            {"ev": CACHE_HIT, "cell": 0},
            {"ev": DISPATCH, "cell": 1},
            {"ev": DISPATCH, "cell": 2},
            {"ev": COLLECT, "cell": 1, "wall_s": 2.0},
        )
        assert progress.total == 4
        assert progress.done == 2
        assert progress.running == 1
        assert progress.hit_rate == 0.5
        # One executed cell: EMA == its wall; 2 remaining / 2 workers.
        assert progress.eta_s() == 2.0

    def test_ema_tracks_recent_cells(self):
        progress = SweepProgress()
        self.feed(
            progress,
            {"ev": SWEEP_BEGIN, "cells": 3, "jobs": 1},
            {"ev": COLLECT, "cell": 0, "wall_s": 1.0},
            {"ev": COLLECT, "cell": 1, "wall_s": 3.0},
        )
        # 1.0 + 0.35 * (3.0 - 1.0)
        assert abs(progress.ema_cell_s - 1.7) < 1e-9
        # 1 remaining cell at EMA cost on 1 worker.
        assert abs(progress.eta_s() - 1.7) < 1e-9

    def test_quarantine_counts_as_done(self):
        progress = SweepProgress()
        self.feed(
            progress,
            {"ev": SWEEP_BEGIN, "cells": 2, "jobs": 1},
            {"ev": DISPATCH, "cell": 0},
            {"ev": QUARANTINE, "cell": 0},
        )
        assert progress.quarantined == 1
        assert progress.done == 1
        assert progress.running == 0
        assert progress.hit_rate is None  # nothing looked up yet

    def test_narration_is_throttled_but_forced_at_end(self):
        clock = FakeClock()
        lines = []
        progress = SweepProgress(log=lines.append, clock=clock)
        self.feed(
            progress,
            {"ev": SWEEP_BEGIN, "cells": 3, "jobs": 1},
            {"ev": COLLECT, "cell": 0, "wall_s": 0.1},  # logged (first)
            {"ev": COLLECT, "cell": 1, "wall_s": 0.1},  # throttled
        )
        assert len(lines) == 1
        clock.now = 2.0
        progress({"ev": COLLECT, "cell": 2, "wall_s": 0.1})  # interval passed
        progress({"ev": SWEEP_END})  # forced despite throttle
        assert len(lines) == 3
        assert lines[-1].startswith("progress: 3/3 cells")


def synthetic_ledger():
    """A two-cell sweep with one cache hit, one retry, fixed stamps."""
    return [
        {"t": 0.0, "pid": 1, "ev": SWEEP_BEGIN, "cells": 3, "jobs": 2},
        {"t": 0.5, "pid": 1, "ev": CACHE_HIT, "cell": 0,
         "workload": "fop", "wall_s": 0.5},
        {"t": 0.6, "pid": 1, "ev": CACHE_MISS, "cell": 1,
         "workload": "antlr", "wall_s": 0.1},
        {"t": 0.7, "pid": 1, "ev": CACHE_MISS, "cell": 2,
         "workload": "bloat", "wall_s": 0.1},
        {"t": 1.0, "pid": 1, "ev": DISPATCH, "cell": 1, "workload": "antlr"},
        {"t": 1.0, "pid": 1, "ev": DISPATCH, "cell": 2, "workload": "bloat"},
        {"t": 2.0, "pid": 7, "ev": ATTEMPT_START, "cell": 1, "attempt": 1},
        {"t": 4.0, "pid": 7, "ev": ATTEMPT_END, "cell": 1, "attempt": 1,
         "ok": False, "wall_s": 2.0},
        {"t": 4.0, "pid": 1, "ev": RETRY, "cell": 1, "attempt": 2,
         "wait_s": 1.0},
        {"t": 5.0, "pid": 8, "ev": ATTEMPT_START, "cell": 1, "attempt": 2},
        {"t": 8.0, "pid": 8, "ev": ATTEMPT_END, "cell": 1, "attempt": 2,
         "ok": True, "wall_s": 3.0},
        {"t": 8.5, "pid": 1, "ev": COLLECT, "cell": 1, "workload": "antlr",
         "wall_s": 3.0},
        {"t": 8.5, "pid": 1, "ev": CACHE_STORE, "cell": 1,
         "workload": "antlr", "wall_s": 0.2},
        {"t": 2.0, "pid": 9, "ev": ATTEMPT_START, "cell": 2, "attempt": 1},
        {"t": 9.0, "pid": 1, "ev": QUARANTINE, "cell": 2,
         "workload": "bloat", "attempts": 1, "kind": "timeout"},
        {"t": 10.0, "pid": 1, "ev": SWEEP_END, "cells": 3, "executed": 1,
         "cached": 1, "quarantined": 1, "wall_s": 10.0, "teardown_s": 1.0},
    ]


class TestAggregate:
    def test_phase_breakdown(self):
        report = aggregate(synthetic_ledger())
        assert report["schema"] == REPORT_SCHEMA
        assert report["cells"] == 3
        assert report["jobs"] == 2
        assert report["executed"] == 1
        phases = report["phases"]
        assert phases["simulate"] == 3.0      # the ok attempt
        assert phases["retry_waste"] == 2.0   # the failed attempt
        assert phases["retry_wait"] == 1.0    # backoff
        # hit 0.5 + two misses 0.1 + store 0.2
        assert abs(phases["cache"] - 0.9) < 1e-9
        # dispatch(1.0)->first attempt_start(2.0), both cells
        assert phases["queue"] == 2.0
        # attempt_end(8.0)->collect(8.5) plus teardown_s=1.0
        assert abs(phases["collect"] - 1.5) < 1e-9
        assert report["accounted_s"] == sum(phases.values())

    def test_coverage_is_union_over_wall(self):
        report = aggregate(synthetic_ledger())
        assert report["wall_s"] == 10.0
        # Explained: cache [0,0.5]+[0.5,0.6]+[0.6,0.7], cell1 [1,8.5]
        # (+store inside), cell2 [1,9], teardown [9,10] -> union 9.7.
        assert abs(report["coverage"] - 0.97) < 1e-9

    def test_cache_retry_quarantine_accounting(self):
        report = aggregate(synthetic_ledger())
        assert report["cache"] == {"hits": 1, "misses": 2, "hit_rate": 1 / 3}
        assert report["retries"] == 1
        assert report["quarantined"] == [
            {"cell": 2, "workload": "bloat", "attempts": 1}
        ]
        assert report["waste_s"] == 3.0
        assert report["workers"] == [7, 8, 9]

    def test_slowest_cells_exclude_cache_hits_and_honor_top(self):
        report = aggregate(synthetic_ledger(), top=1)
        assert len(report["slowest_cells"]) == 1
        slowest = report["slowest_cells"][0]
        assert slowest["cell"] == 1
        assert slowest["workload"] == "antlr"
        assert slowest["attempts"] == 2
        assert slowest["outcome"] == "executed"

    def test_old_transport_fields_are_ignored(self):
        # Ledgers written before results moved by plain pickling carry
        # byte counts on collect events; they fold exactly as without.
        events = synthetic_ledger()
        for event in events:
            if event["ev"] == COLLECT:
                event["result_bytes"] = 1400
                event["pickle_bytes"] = 1650
        report = aggregate(events)
        assert report == aggregate(synthetic_ledger())
        assert "transport" not in report

    def test_fresh_sweep_ledger_has_no_transport_fields(self, tmp_path):
        # A pooled sweep writes collect events without byte counts, and
        # its report has no transport block to fill.
        ledger = SweepLedger(str(tmp_path / "sweep.ledger.jsonl"))
        grid = [
            RunConfig(workload="luindex", scale=0.05, seed=seed,
                      failure_model=FailureModel())
            for seed in (0, 1)
        ]
        run_grid(grid, jobs=2, ledger=ledger)
        events, problems = read_ledger(ledger.path)
        assert problems == []
        collects = [e for e in events if e["ev"] == COLLECT]
        assert len(collects) == len(grid)
        for event in collects:
            assert "result_bytes" not in event
            assert "pickle_bytes" not in event
        assert "transport" not in aggregate(events)

    def test_unbounded_ledger_has_no_wall_or_coverage(self):
        events = [e for e in synthetic_ledger() if e["ev"] != SWEEP_END]
        report = aggregate(events)
        assert report["wall_s"] is None
        assert report["coverage"] is None
        assert report["phases"]["simulate"] == 3.0

    def test_empty_ledger(self):
        report = aggregate([])
        assert report["cells"] == 0
        assert report["executed"] == 0
        assert report["slowest_cells"] == []
