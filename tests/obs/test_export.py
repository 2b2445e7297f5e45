"""Chrome trace export: schema round-trip, validator, atomic publication."""

import json

import pytest

from repro.obs import Tracer, chrome_trace, validate_chrome_trace
from repro.obs.export import (
    LEDGER_CATEGORIES,
    PARENT_TID,
    PROCESS_ID,
    TRACK_IDS,
    UNITS_PER_US,
    ledger_chrome_trace,
    write_chrome_trace,
    write_ledger_chrome_trace,
)
from repro.obs.trace import HARDWARE, OS, RUNTIME


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def sample_tracer() -> Tracer:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.instant("pcm.line_failure", HARDWARE, args={"line": 7})
    clock.now = 1000.0
    with tracer.span("os.upcall", OS):
        clock.now = 3000.0
    with tracer.span("gc.full", RUNTIME):
        clock.now = 5000.0
    return tracer


class TestChromeTrace:
    def test_round_trips_through_json(self, tmp_path):
        tracer = sample_tracer()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tracer, str(path), metadata={"workload": "x"})
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["workload"] == "x"
        assert loaded["otherData"]["recorded_events"] == tracer.recorded

    def test_layers_map_to_fixed_tracks(self):
        payload = chrome_trace(sample_tracer())
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        by_name = {e["name"]: e for e in events}
        assert by_name["pcm.line_failure"]["tid"] == TRACK_IDS[HARDWARE]
        assert by_name["os.upcall"]["tid"] == TRACK_IDS[OS]
        assert by_name["gc.full"]["tid"] == TRACK_IDS[RUNTIME]
        assert all(e["pid"] == PROCESS_ID for e in events)

    def test_timestamps_scaled_to_microseconds(self):
        payload = chrome_trace(sample_tracer())
        begin = next(
            e for e in payload["traceEvents"]
            if e["ph"] == "B" and e["name"] == "gc.full"
        )
        assert begin["ts"] == 3000.0 / UNITS_PER_US

    def test_metadata_events_name_the_threads(self):
        payload = chrome_trace(sample_tracer())
        names = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {1: RUNTIME, 2: OS, 3: HARDWARE}


class TestValidator:
    def test_flags_unbalanced_span(self):
        tracer = Tracer()
        tracer.begin("gc.full")
        problems = validate_chrome_trace(chrome_trace(tracer))
        assert any("unclosed B" in p for p in problems)

    def test_flags_orphan_end(self):
        tracer = Tracer()
        tracer.end("gc.full")
        problems = validate_chrome_trace(chrome_trace(tracer))
        assert any("without matching B" in p for p in problems)

    def test_tolerates_imbalance_after_overflow(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, capacity=3)
        for _ in range(5):
            with tracer.span("gc.full"):
                clock.now += 1.0
        assert tracer.dropped > 0
        # The surviving window starts mid-span; that must not fail.
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_flags_structural_damage(self):
        payload = chrome_trace(sample_tracer())
        payload["traceEvents"][0]["ph"] = "Z"
        assert any("invalid ph" in p for p in validate_chrome_trace(payload))
        assert validate_chrome_trace({"no": "events"}) != []
        assert validate_chrome_trace([1, 2]) != []

    def test_flags_backwards_time(self):
        payload = {
            "traceEvents": [
                {"name": "a", "ph": "i", "ts": 5.0, "pid": 1, "tid": 1},
                {"name": "b", "ph": "i", "ts": 1.0, "pid": 1, "tid": 1},
            ]
        }
        assert any("backwards" in p for p in validate_chrome_trace(payload))


class TestAtomicPublication:
    """A trace that fails to serialize must not replace the last one."""

    def test_chrome_trace_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(sample_tracer(), str(path))
        before = path.read_bytes()
        broken = sample_tracer()
        broken.instant("bad", RUNTIME, args={"value": object()})
        with pytest.raises(TypeError):
            write_chrome_trace(broken, str(path))
        assert path.read_bytes() == before
        assert validate_chrome_trace(json.loads(before)) == []
        assert list(tmp_path.glob("*.tmp")) == []

    def test_ledger_trace_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "wall.json"
        write_ledger_chrome_trace(sample_ledger_events(), str(path))
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_ledger_chrome_trace(
                sample_ledger_events(), str(path), metadata={"bad": object()}
            )
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_bytes_are_compact_json_and_a_newline(self, tmp_path):
        path = tmp_path / "trace.json"
        payload = write_chrome_trace(sample_tracer(), str(path))
        assert path.read_text() == json.dumps(payload, separators=(",", ":")) + "\n"


def sample_ledger_events():
    """A parent (pid 1) and two workers (7, 8), fixed unix stamps."""
    return [
        {"t": 100.0, "pid": 1, "ev": "sweep_begin", "cells": 3, "jobs": 2},
        {"t": 100.1, "pid": 1, "ev": "cache_hit", "cell": 0,
         "workload": "fop", "wall_s": 0.1},
        {"t": 100.2, "pid": 1, "ev": "dispatch", "cell": 1,
         "workload": "antlr"},
        {"t": 100.2, "pid": 1, "ev": "dispatch", "cell": 2,
         "workload": "bloat"},
        {"t": 101.0, "pid": 7, "ev": "attempt_start", "cell": 1,
         "attempt": 1},
        {"t": 103.0, "pid": 7, "ev": "attempt_end", "cell": 1, "attempt": 1,
         "ok": True, "wall_s": 2.0},
        {"t": 101.0, "pid": 8, "ev": "attempt_start", "cell": 2,
         "attempt": 1},
        {"t": 104.0, "pid": 8, "ev": "attempt_end", "cell": 2, "attempt": 1,
         "ok": True, "wall_s": 3.0},
        {"t": 103.1, "pid": 1, "ev": "collect", "cell": 1,
         "workload": "antlr", "wall_s": 2.0},
        {"t": 104.1, "pid": 1, "ev": "collect", "cell": 2,
         "workload": "bloat", "wall_s": 3.0},
        {"t": 104.2, "pid": 1, "ev": "sweep_end", "cells": 3, "executed": 2,
         "cached": 1, "quarantined": 0, "wall_s": 4.2},
    ]


class TestLedgerChromeTrace:
    def test_validates_under_the_sweep_vocabulary(self):
        payload = ledger_chrome_trace(sample_ledger_events())
        assert validate_chrome_trace(payload, LEDGER_CATEGORIES) == []

    def test_one_track_per_worker_pid(self):
        payload = ledger_chrome_trace(sample_ledger_events())
        spans = {
            e["name"]: e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("cell ")
        }
        # Workers 7 and 8 get distinct tracks, neither the parent's.
        tids = {spans[name]["tid"] for name in spans}
        assert len(tids) == 2
        assert PARENT_TID not in tids
        assert payload["otherData"]["workers"] == 2

    def test_attempt_spans_use_wall_clock_microseconds(self):
        payload = ledger_chrome_trace(sample_ledger_events())
        span = next(
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e.get("args", {}).get("cell") == 1
        )
        # attempt_start at t=101 is 1 s after the sweep's t0=100.
        assert span["ts"] == 1_000_000.0
        assert span["dur"] == 2_000_000.0

    def test_parent_instants_and_cache_spans_on_parent_track(self):
        payload = ledger_chrome_trace(sample_ledger_events())
        instants = [
            e for e in payload["traceEvents"] if e["ph"] == "i"
        ]
        assert instants
        assert all(e["tid"] == PARENT_TID for e in instants)

    def test_round_trips_through_file(self, tmp_path):
        path = tmp_path / "ledger-trace.json"
        written = write_ledger_chrome_trace(
            sample_ledger_events(), str(path), metadata={"plan": "smoke"}
        )
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert loaded["otherData"]["plan"] == "smoke"
        assert loaded["otherData"]["ledger_events"] == len(
            sample_ledger_events()
        )
