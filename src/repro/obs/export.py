"""Trace exporter: Chrome ``trace_event`` JSON.

The Chrome trace format is the JSON Array/Object format consumed by
``chrome://tracing`` and Perfetto (ui.perfetto.dev → "Open trace
file"). Simulated time units map to microseconds: the cost model's
unit is ~1 ns, so ``ts = units / 1000`` renders GC pauses at a
natural scale in the viewer.

Layers map to tracks: one process ("repro simulation"), three named
threads — runtime (tid 1), os (tid 2), hardware (tid 3) — so the
cross-layer causality of a failure (hardware interrupt → OS upcall →
dynamic-failure collection) reads top to bottom in the UI.

``validate_chrome_trace`` is the schema check used by tests, the CLI
and the CI smoke job. It verifies structural requirements Perfetto
cares about (required keys, known phases, numeric non-negative
timestamps) and — when the ring buffer did not overflow — that B/E
span events balance per track. Both writers publish atomically
(:func:`repro.ioutil.atomic_write_text`), so a killed run or a payload
that fails to serialize leaves any earlier trace at the path intact.

A second exporter lives here too: :func:`ledger_chrome_trace` renders
a sweep flight-recorder ledger (:mod:`repro.obs.ledger`) as a
*wall-clock* Chrome trace — one track for the sweep parent and one
per worker process — so where the harness spends real time reads in
the same Perfetto UI as where the simulation spends simulated time.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from ..ioutil import atomic_write_text
from .trace import CATEGORIES, HARDWARE, OS, RUNTIME, Tracer

#: Track ids: runtime on top, hardware at the bottom.
TRACK_IDS = {RUNTIME: 1, OS: 2, HARDWARE: 3}
PROCESS_ID = 1
PROCESS_NAME = "repro simulation"

#: Simulated units per Chrome-trace microsecond (units are ~1 ns).
UNITS_PER_US = 1000.0

VALID_PHASES = {"B", "E", "i", "I", "M", "X"}


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The ``traceEvents`` array: metadata first, then the ring."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PROCESS_ID,
            "tid": 0,
            "args": {"name": PROCESS_NAME},
        }
    ]
    for cat, tid in sorted(TRACK_IDS.items(), key=lambda item: item[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PROCESS_ID,
                "tid": tid,
                "args": {"name": cat},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": PROCESS_ID,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    for event in tracer.events():
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.cat,
            "ph": event.ph,
            "ts": event.ts / UNITS_PER_US,
            "pid": PROCESS_ID,
            "tid": TRACK_IDS.get(event.cat, 0),
        }
        if event.ph == "i":
            record["s"] = "t"  # instant scope: thread
        if event.args is not None:
            record["args"] = event.args
        events.append(record)
    return events


def chrome_trace(
    tracer: Tracer, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Full Chrome trace payload (JSON Object format)."""
    other: Dict[str, Any] = {
        "recorded_events": tracer.recorded,
        "dropped_events": tracer.dropped,
        "time_units_per_us": UNITS_PER_US,
    }
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    tracer: Tracer, path: str, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    payload = chrome_trace(tracer, metadata)
    atomic_write_text(path, json.dumps(payload, separators=(",", ":")) + "\n")
    return payload


def validate_chrome_trace(
    payload: Any, categories: Optional[Sequence[str]] = None
) -> List[str]:
    """Schema problems with a Chrome trace payload; [] means valid.

    ``categories`` is the set of legal ``cat`` values — the simulated
    layer names by default; pass :data:`LEDGER_CATEGORIES` for a
    wall-clock ledger trace.
    """
    known_cats = tuple(categories) if categories is not None else CATEGORIES
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array traceEvents"]
    if not events:
        problems.append("traceEvents is empty")
    dropped = 0
    other = payload.get("otherData")
    if isinstance(other, dict):
        dropped = int(other.get("dropped_events", 0) or 0)
    stacks: Dict[int, List[str]] = {}
    last_ts: Dict[int, float] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing name")
        ph = event.get("ph")
        if ph not in VALID_PHASES:
            problems.append(f"{where}: invalid ph {ph!r}")
            continue
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            problems.append(f"{where}: pid/tid must be integers")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
            continue
        cat = event.get("cat")
        if cat is not None and cat not in known_cats:
            problems.append(f"{where}: unknown cat {cat!r}")
        tid = event["tid"]
        if ts < last_ts.get(tid, 0.0):
            problems.append(f"{where}: ts {ts} goes backwards on tid {tid}")
        last_ts[tid] = max(last_ts.get(tid, 0.0), float(ts))
        if ph == "B":
            stacks.setdefault(tid, []).append(name)
        elif ph == "E":
            stack = stacks.setdefault(tid, [])
            if stack:
                stack.pop()
            elif dropped == 0:
                problems.append(f"{where}: E event {name!r} without matching B")
    if dropped == 0:
        for tid, stack in stacks.items():
            if stack:
                problems.append(
                    f"tid {tid}: {len(stack)} unclosed B event(s), "
                    f"innermost {stack[-1]!r}"
                )
    return problems


# ----------------------------------------------------------------------
# Wall-clock ledger traces (one track per worker process)
# ----------------------------------------------------------------------
#: The legal ``cat`` value in a ledger-derived trace.
LEDGER_CATEGORY = "sweep"
LEDGER_CATEGORIES = (LEDGER_CATEGORY,)

LEDGER_PROCESS_NAME = "repro sweep (wall clock)"

#: Parent-track id; worker tracks are assigned 2, 3, ... by first
#: appearance order of their pids.
PARENT_TID = 1


def ledger_chrome_trace(
    ledger_events: Sequence[Dict[str, Any]],
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A ledger (:func:`repro.obs.ledger.read_ledger`) as a Chrome trace.

    Wall-clock unix timestamps are rebased to the first event and
    scaled to microseconds. Worker attempts render as complete ("X")
    spans on one track per worker pid; parent-side bookkeeping
    (cache operations, dispatches, retries, quarantines) renders as
    instants — and cache operations as spans — on the parent track.
    Validate with ``validate_chrome_trace(payload, LEDGER_CATEGORIES)``.
    """
    from .ledger import (  # local: export must stay importable standalone
        ATTEMPT_END, ATTEMPT_START, CACHE_HIT, CACHE_MISS, CACHE_STORE,
        COLLECT, CRASH, DISPATCH, QUARANTINE, RETRY, SWEEP_BEGIN, TIMEOUT,
    )

    events = [e for e in ledger_events if isinstance(e.get("t"), (int, float))]
    if not events:
        return {
            "traceEvents": [],
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}),
        }
    t0 = min(float(e["t"]) for e in events)
    parent_pid = next(
        (e.get("pid") for e in events if e.get("ev") == SWEEP_BEGIN), None
    )

    tids: Dict[Any, int] = {}

    def tid_for(event: Dict[str, Any]) -> int:
        pid = event.get("pid")
        if pid == parent_pid or pid is None:
            return PARENT_TID
        if pid not in tids:
            tids[pid] = PARENT_TID + 1 + len(tids)
        return tids[pid]

    def us(t: float) -> float:
        return max(0.0, (t - t0) * 1e6)

    spans: List[Dict[str, Any]] = []
    starts: Dict[Any, Dict[str, Any]] = {}
    for event in events:
        ev = event.get("ev")
        t = float(event["t"])
        cell = event.get("cell")
        if ev == ATTEMPT_START:
            starts[(cell, event.get("attempt", 1), event.get("pid"))] = event
        elif ev == ATTEMPT_END:
            begun = starts.pop(
                (cell, event.get("attempt", 1), event.get("pid")), None
            )
            started_ts = (
                us(float(begun["t"]))
                if begun is not None
                else us(t) - float(event.get("wall_s", 0.0)) * 1e6
            )
            spans.append(
                {
                    "name": f"cell {cell} "
                    f"{event.get('workload') or ''} a{event.get('attempt', 1)}".strip(),
                    "cat": LEDGER_CATEGORY,
                    "ph": "X",
                    "ts": started_ts,
                    "dur": max(0.0, us(t) - started_ts),
                    "pid": PROCESS_ID,
                    "tid": tid_for(event),
                    "args": {
                        "cell": cell,
                        "attempt": event.get("attempt", 1),
                        "ok": bool(event.get("ok", True)),
                    },
                }
            )
        elif ev in (CACHE_HIT, CACHE_MISS, CACHE_STORE):
            wall_us = float(event.get("wall_s", 0.0)) * 1e6
            spans.append(
                {
                    "name": ev,
                    "cat": LEDGER_CATEGORY,
                    "ph": "X",
                    "ts": max(0.0, us(t) - wall_us),
                    "dur": wall_us,
                    "pid": PROCESS_ID,
                    "tid": PARENT_TID,
                    "args": {"cell": cell},
                }
            )
        elif ev in (DISPATCH, COLLECT, RETRY, TIMEOUT, CRASH, QUARANTINE):
            spans.append(
                {
                    "name": ev,
                    "cat": LEDGER_CATEGORY,
                    "ph": "i",
                    "s": "t",
                    "ts": us(t),
                    "pid": PROCESS_ID,
                    "tid": PARENT_TID,
                    "args": {"cell": cell},
                }
            )
    spans.sort(key=lambda record: record["ts"])

    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PROCESS_ID,
            "tid": 0,
            "args": {"name": LEDGER_PROCESS_NAME},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": PROCESS_ID,
            "tid": PARENT_TID,
            "args": {"name": "parent"},
        },
    ]
    for pid, tid in sorted(tids.items(), key=lambda item: item[1]):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PROCESS_ID,
                "tid": tid,
                "args": {"name": f"worker pid {pid}"},
            }
        )
    trace_events.extend(spans)
    other: Dict[str, Any] = {
        "ledger_events": len(events),
        "workers": len(tids),
        "epoch_unix": t0,
    }
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_ledger_chrome_trace(
    ledger_events: Sequence[Dict[str, Any]],
    path: str,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    payload = ledger_chrome_trace(ledger_events, metadata)
    atomic_write_text(path, json.dumps(payload, separators=(",", ":")) + "\n")
    return payload
