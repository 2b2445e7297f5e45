"""Tests for the cross-layer heap auditor (repro.check).

Two halves: the coordinator mechanics (levels, hooks, record-only
mode, report rendering), and detection power — each checker must flag a
deliberately seeded corruption of its layer's state.
"""

import pytest

from repro.check import (
    PARANOID_ALLOC_INTERVAL,
    VERIFY_LEVELS,
    AuditReport,
    HeapAuditor,
    Violation,
    audit_vm,
    check_verify_level,
    run_campaign,
)
from repro.errors import ConfigError, HeapAuditError
from repro.faults.generator import FailureModel
from repro.heap.line_table import FREE
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.units import KiB, MiB
from repro.workloads.driver import TraceDriver
from repro.workloads.spec import WorkloadSpec

SPEC = WorkloadSpec(
    name="audit-unit",
    description="tiny unpinned workload for auditor tests",
    total_alloc_bytes=256 * KiB,
    immortal_bytes=16 * KiB,
    short_lifetime_bytes=16 * KiB,
    long_lifetime_bytes=48 * KiB,
    long_fraction=0.10,
    size_weights=(0.90, 0.08, 0.02),
    cohort_size=8,
    pinned_fraction=0.0,
)


def make_vm(rate=0.20, verify="off", **config):
    vm = VirtualMachine(
        VmConfig(
            heap_bytes=1 * MiB,
            failure_model=FailureModel(rate=rate, hw_region_pages=2),
            seed=3,
            verify=verify,
            **config,
        )
    )
    TraceDriver(SPEC, 3).run(vm)
    return vm


def found_invariants(vm, trigger="final"):
    return {violation.invariant for violation in audit_vm(vm, trigger).violations}


# ======================================================================
# Coordinator mechanics
# ======================================================================
class TestViolation:
    def test_where_and_describe(self):
        violation = Violation(
            invariant="line-mark-drift",
            layer="heap",
            message="disagrees",
            expected="FAILED",
            actual="FREE",
            block=4,
            line=17,
        )
        assert violation.where() == "block=4, line=17"
        text = violation.describe()
        assert "[heap] line-mark-drift" in text
        assert "expected: FAILED" in text and "actual:   FREE" in text
        assert Violation("x", "os", "m").where() == "heap-wide"

    def test_to_dict_round_trips_fields(self):
        violation = Violation("inv", "runtime", "msg", page=2)
        data = violation.to_dict()
        assert data["invariant"] == "inv" and data["page"] == 2
        assert data["block"] is None


class TestAuditReport:
    def test_render_clean(self):
        report = AuditReport(trigger="gc", checks_run=8)
        assert report.ok
        assert "no violations" in report.render()

    def test_render_with_violations(self):
        report = AuditReport(
            trigger="final",
            violations=[Violation("inv", "os", "broken")],
            checks_run=8,
        )
        assert not report.ok
        assert "1 violation(s)" in report.render()
        assert "inv" in report.render()


class TestVerifyLevels:
    def test_known_levels_pass_through(self):
        for level in VERIFY_LEVELS:
            assert check_verify_level(level) == level

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigError):
            check_verify_level("extreme")
        with pytest.raises(ConfigError):
            HeapAuditor(object(), level="extreme")

    def test_vm_rejects_unknown_level(self):
        with pytest.raises(ConfigError):
            VirtualMachine(VmConfig(heap_bytes=1 * MiB, verify="extreme"))

    def test_env_variable_selects_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "gc")
        vm = VirtualMachine(VmConfig(heap_bytes=1 * MiB))
        assert vm.auditor.level == "gc"
        # Explicit config wins over the environment.
        vm = VirtualMachine(VmConfig(heap_bytes=1 * MiB, verify="off"))
        assert vm.auditor.level == "off"


class TestHookGating:
    def make_counting_auditor(self, level):
        auditor = HeapAuditor(object(), level=level)
        calls = []
        auditor.audit = lambda trigger="manual": calls.append(trigger)
        return auditor, calls

    def test_off_never_audits(self):
        auditor, calls = self.make_counting_auditor("off")
        auditor.after_gc()
        auditor.after_upcall()
        auditor.after_alloc()
        assert auditor.final() is None
        assert calls == []

    def test_gc_level_audits_gc_and_final_only(self):
        auditor, calls = self.make_counting_auditor("gc")
        auditor.after_gc()
        auditor.after_upcall()
        auditor.after_alloc()
        auditor.final()
        assert calls == ["gc", "final"]

    def test_upcall_level_adds_upcall_audits(self):
        auditor, calls = self.make_counting_auditor("upcall")
        auditor.after_upcall()
        auditor.after_alloc()
        assert calls == ["upcall"]

    def test_paranoid_samples_allocations(self):
        auditor, calls = self.make_counting_auditor("paranoid")
        for _ in range(PARANOID_ALLOC_INTERVAL * 2):
            auditor.after_alloc()
        assert calls == ["alloc", "alloc"]


class TestVmAllocHook:
    """The VM calls ``after_alloc`` only at the paranoid level."""

    ALLOCS = 3 * PARANOID_ALLOC_INTERVAL

    def allocate(self, level):
        vm = VirtualMachine(VmConfig(heap_bytes=1 * MiB, verify=level))
        triggers = []
        vm.auditor.audit = lambda trigger="manual": triggers.append(trigger)
        for _ in range(self.ALLOCS):
            vm.alloc(48)
        return triggers

    def test_paranoid_audits_every_interval(self):
        assert self.allocate("paranoid") == ["alloc"] * 3

    @pytest.mark.parametrize("level", ["off", "gc"])
    def test_other_levels_never_call_the_hook(self, level, monkeypatch):
        calls = []
        monkeypatch.setattr(HeapAuditor, "after_alloc", lambda self: calls.append(1))
        assert self.allocate(level) == []
        assert calls == []


# ======================================================================
# Detection power: every seeded corruption must be flagged
# ======================================================================
def block_with_failures(vm):
    for block in vm.collector.blocks:
        if block.n_failed:
            return block
    pytest.skip("run produced no block with failed lines")


class TestDetection:
    def test_clean_run_audits_clean(self):
        vm = make_vm()
        report = audit_vm(vm, "final")
        assert report.ok, report.render()
        assert report.checks_run == 10

    def test_masked_failed_line(self):
        vm = make_vm()
        block = block_with_failures(vm)
        line = block.failed_line_indices()[0]
        block.line_states[line] = FREE
        assert "failed-line-masked" in found_invariants(vm)

    def test_object_overlap(self):
        vm = make_vm()
        block = next(b for b in vm.collector.blocks if b.objects)
        victim = block.objects[0]
        intruder = vm.factory.make(64)
        block.place(intruder, victim.offset)
        assert "object-overlap" in found_invariants(vm)

    def test_phantom_failed_line_seeding(self):
        vm = make_vm()
        block = next(b for b in vm.collector.blocks)
        failed = block.failed_line_indices()
        free_line = next(line for line in range(block.n_lines) if line not in failed)
        block.table.fail_marks[block.table.base(block.slot) + free_line] = 1
        assert "failed-line-seeding" in found_invariants(vm)

    def test_failure_table_divergence(self):
        vm = make_vm()
        pcm = vm.injector.pcm
        # A line the module now reports failed but the OS never absorbed.
        failed = pcm.failed_logical_lines()
        healthy = next(line for line in range(pcm.n_lines) if line not in failed)
        pcm.inject_static_failures([healthy])
        assert "failure-table-sync" in found_invariants(vm)

    def test_leaked_failure_buffer_entry(self):
        from repro.hardware.failure_buffer import FailureEntry

        vm = make_vm()
        # Seed the entry behind the interrupt line: a real insert()
        # interrupts the OS, which correctly services and drains it.
        buffer = vm.injector.pcm.failure_buffer
        buffer._entries[0x40] = FailureEntry(0x40, "leaked")
        assert "failure-buffer-drained" in found_invariants(vm, trigger="final")
        # Mid-service audits must tolerate parked entries.
        assert "failure-buffer-drained" not in found_invariants(vm, trigger="upcall")

    def test_orphaned_pool_page(self):
        vm = make_vm()
        pools = vm.os.pools
        pools._allocated.discard(next(iter(pools._allocated)))
        assert "page-pool-partition" in found_invariants(vm)

    def test_stale_page_directory(self):
        vm = make_vm()
        directory = vm.collector.page_directory
        del directory[next(iter(directory))]
        assert "page-directory-sync" in found_invariants(vm)

    def test_borrow_ledger_divergence(self):
        vm = make_vm()
        vm.supply.accountant.borrow()
        assert "borrow-penalty-accounting" in found_invariants(vm)

    def test_corrupt_redirection_map(self):
        vm = make_vm()
        rmap = vm.injector.pcm.clustering.map_for_region(0)
        rmap.installed = True
        rmap.logical_to_physical[0] = rmap.logical_to_physical[1]
        assert "redirection-permutation" in found_invariants(vm)

    def test_redirection_failures_must_be_reported(self):
        vm = make_vm()
        pcm = vm.injector.pcm
        per_region = vm.geometry.lines_per_region
        n_regions = pcm.n_lines // per_region
        hw_regions = {line // per_region for line in pcm.failed_logical_lines()}
        physical_regions = {
            line // per_region for line in pcm.failed_physical_indices().tolist()
        }
        clean = next(
            (
                r
                for r in range(n_regions)
                if r not in hw_regions and r not in physical_regions
            ),
            None,
        )
        if clean is None:
            pytest.skip("every region has failures at this seed")
        rmap = pcm.clustering.map_for_region(clean)
        rmap.installed = True
        rmap.failed_count = 1  # claims a failure the module never saw
        invariants = found_invariants(vm)
        assert "redirection-reported" in invariants
        assert "redirection-overcount" in invariants


class TestAuditorModes:
    def test_record_only_collects_instead_of_raising(self):
        vm = make_vm()
        block = block_with_failures(vm)
        block.line_states[block.failed_line_indices()[0]] = FREE
        auditor = HeapAuditor(vm, level="gc", record_only=True)
        report = auditor.audit("manual")
        assert not report.ok
        assert auditor.violations and auditor.audits_run == 1

    def test_strict_mode_raises_heap_audit_error(self):
        vm = make_vm()
        block = block_with_failures(vm)
        block.line_states[block.failed_line_indices()[0]] = FREE
        auditor = HeapAuditor(vm, level="gc")
        with pytest.raises(HeapAuditError):
            auditor.audit("manual")

    def test_vm_hook_raises_end_to_end(self):
        # The corruption must survive a collection (the sweep rebuilds
        # line marks, healing heap-layer damage), so break OS state.
        vm = make_vm(verify="gc")
        pools = vm.os.pools
        pools._allocated.discard(next(iter(pools._allocated)))
        with pytest.raises(HeapAuditError):
            vm.collect()


class TestCampaign:
    def test_single_workload_campaign_is_clean(self):
        result = run_campaign(seed=0, workloads=["luindex"], scale=0.05)
        assert len(result.runs) == 1
        run = result.runs[0]
        assert run.audits > 0
        assert run.dynamic_failures > 0, "campaign must exercise dynamic failures"
        assert result.ok, result.render()
        assert "0 violation" in result.render()

    def test_campaign_not_ok_without_dynamic_failures(self):
        from repro.check.campaign import CampaignResult, CampaignRun

        result = CampaignResult(
            runs=[
                CampaignRun(
                    workload="w",
                    scenario="s",
                    seed=0,
                    heap_bytes=0,
                    audits=1,
                    dynamic_failures=0,
                    duplicate_failures=0,
                    upcalls=0,
                    collections=0,
                )
            ]
        )
        assert not result.ok
        assert "WARNING" in result.render()
