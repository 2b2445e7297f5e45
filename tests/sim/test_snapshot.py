"""Tests for lifetime checkpoints (sim/snapshot.py).

The contract under test: a lifetime study checkpointed at an iteration
boundary and resumed from the snapshot file ends bit-identical to an
uninterrupted study, and the envelope refuses anything it cannot
vouch for (bad bytes, other sources, another kind or another study).
"""

import dataclasses
import os

import pytest

from repro.errors import SnapshotError
from repro.faults.generator import FailureModel
from repro.sim.lifetime import run_lifetime, write_heavy
from repro.sim.machine import RunConfig
from repro.sim.snapshot import (
    SNAPSHOT_MAGIC,
    CheckpointPolicy,
    MachineSnapshot,
    machine_digest,
)
from repro.workloads.dacapo import workload


class TestEnvelope:
    def test_bytes_round_trip(self):
        snapshot = MachineSnapshot.capture({"answer": 42}, kind="bench",
                                           meta={"step": 7})
        clone = MachineSnapshot.from_bytes(snapshot.to_bytes())
        assert clone.kind == "bench"
        assert clone.meta == {"step": 7}
        assert clone.restore() == {"answer": 42}

    def test_file_round_trip_is_atomic(self, tmp_path):
        path = tmp_path / "nested" / "state.snap"
        MachineSnapshot.capture([1, 2, 3], kind="lifetime").save(str(path))
        assert MachineSnapshot.load(str(path)).restore() == [1, 2, 3]
        leftovers = [
            name for name in os.listdir(path.parent) if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_bytes(b"NOTASNAP" + b"\0" * 64)

    def test_truncation_rejected(self):
        blob = MachineSnapshot.capture("payload").to_bytes()
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_bytes(blob[: len(blob) - 3])
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_bytes(blob[: len(SNAPSHOT_MAGIC) + 1])

    def test_corruption_rejected(self):
        blob = bytearray(MachineSnapshot.capture("payload").to_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_bytes(bytes(blob))

    def test_fingerprint_gates_restore(self):
        snapshot = MachineSnapshot.capture("payload")
        snapshot.fingerprint = "stale"
        with pytest.raises(SnapshotError):
            snapshot.restore()
        assert snapshot.restore(check_fingerprint=False) == "payload"

    def test_missing_file_is_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            MachineSnapshot.load(str(tmp_path / "absent.snap"))


def driven_machine(seed=0, rate=0.10):
    from repro.runtime.vm import VirtualMachine, VmConfig
    from repro.sim.machine import min_heap_bytes
    from repro.workloads.driver import TraceDriver

    config = RunConfig(
        workload="luindex",
        scale=0.05,
        seed=seed,
        failure_model=FailureModel(rate=rate),
    )
    heap = int(min_heap_bytes(config) * config.heap_multiplier)
    vm = VirtualMachine(
        VmConfig(
            heap_bytes=heap,
            failure_model=config.failure_model,
            seed=config.seed,
        )
    )
    TraceDriver(config.spec(), config.seed).run(vm)
    return vm


class TestSoaHeapState:
    """The whole-heap SoA arrays reach the machine digest."""

    def test_digest_covers_soa_arrays(self):
        vm = driven_machine()
        table = vm.collector.table
        before = machine_digest(vm)
        slot = table.active_slots()[0]
        base = table.base(slot)
        original = table.lines[base]
        table.lines[base] = (original + 1) % 4
        table.touch()
        try:
            assert machine_digest(vm) != before
        finally:
            table.lines[base] = original
            table.touch()
        assert machine_digest(vm) == before


def small_study():
    spec = write_heavy(workload("luindex"), mutations_per_object=2.0)
    spec = dataclasses.replace(spec, total_alloc_bytes=300_000)
    return spec, dict(endurance_mean_writes=30.0, max_iterations=6, seed=0)


class TestResumeBitIdentity:
    def test_lifetime_resume_identical(self, tmp_path):
        snap = str(tmp_path / "life.snap")
        spec, kwargs = small_study()
        clean = run_lifetime(spec, **kwargs)
        # One checkpoint, after iteration 4 of 6: the resume runs two.
        checkpointed = run_lifetime(
            spec, checkpoint=CheckpointPolicy(snap, every_steps=4), **kwargs
        )
        assert MachineSnapshot.load(snap).meta["iteration"] == 4
        resumed = run_lifetime(spec, resume_from=snap, **kwargs)
        for other in (checkpointed, resumed):
            assert other.iterations_completed == clean.iterations_completed
            assert other.final_failed_fraction == clean.final_failed_fraction
            assert [r.__dict__ for r in other.records] == \
                [r.__dict__ for r in clean.records]

    def test_lifetime_rejects_bench_snapshot(self, tmp_path):
        snap = str(tmp_path / "bench.snap")
        MachineSnapshot.capture("whatever", kind="bench").save(snap)
        spec = write_heavy(workload("luindex"), mutations_per_object=2.0)
        with pytest.raises(SnapshotError):
            run_lifetime(spec, resume_from=snap)


class TestStudyIdentity:
    """A checkpoint continues only the study that wrote it."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        snap = str(tmp_path / "life.snap")
        spec, kwargs = small_study()
        kwargs["max_iterations"] = 2
        run_lifetime(spec, checkpoint=CheckpointPolicy(snap, 2), **kwargs)
        return snap

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"clustering": False}, "clustering"),
            ({"endurance_mean_writes": 31.0}, "endurance_mean_writes"),
            ({"seed": 1}, "seed"),
            ({"page_retirement": True}, "page_retirement"),
            ({"heap_multiplier": 3.0}, "heap_multiplier"),
        ],
    )
    def test_other_study_refused(self, checkpoint, change, field):
        spec, kwargs = small_study()
        kwargs.update(change)
        with pytest.raises(SnapshotError, match=f"different study: its {field} "):
            run_lifetime(spec, resume_from=checkpoint, **kwargs)

    def test_other_workload_refused(self, checkpoint):
        _, kwargs = small_study()
        spec = write_heavy(workload("avrora"), mutations_per_object=2.0)
        with pytest.raises(SnapshotError, match="its workload is 'luindex'"):
            run_lifetime(spec, resume_from=checkpoint, **kwargs)

    def test_longer_horizon_allowed(self, checkpoint):
        spec, kwargs = small_study()
        clean = run_lifetime(spec, **kwargs)
        resumed = run_lifetime(spec, resume_from=checkpoint, **kwargs)
        assert [r.__dict__ for r in resumed.records] == \
            [r.__dict__ for r in clean.records]
