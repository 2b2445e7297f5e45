"""End-to-end tracing: layer coverage, bit-identity, the invariant."""

import dataclasses

from repro.check import audit_vm
from repro.faults.generator import FailureModel
from repro.obs import ROOT_PHASE, Tracer, chrome_trace, validate_chrome_trace
from repro.obs.trace import HARDWARE, OS, RUNTIME
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.sim.machine import RunConfig, run_benchmark, run_wearing_benchmark
from repro.units import KiB, MiB
from repro.workloads.driver import TraceDriver
from repro.workloads.spec import WorkloadSpec

CONFIG = RunConfig(
    workload="luindex",
    failure_model=FailureModel(rate=0.10, hw_region_pages=2),
    scale=0.05,
)

#: Wearing-run config: no static failures, so every wear-induced
#: failure lands on a healthy line and must ride the full dynamic
#: chain (failure buffer -> upcall -> forced collection).
WEAR_CONFIG = dataclasses.replace(CONFIG, failure_model=FailureModel())

SPEC = WorkloadSpec(
    name="obs-unit",
    description="tiny workload for tracing-integration tests",
    total_alloc_bytes=256 * KiB,
    immortal_bytes=16 * KiB,
    short_lifetime_bytes=16 * KiB,
    long_lifetime_bytes=48 * KiB,
    long_fraction=0.10,
    size_weights=(0.90, 0.08, 0.02),
    cohort_size=8,
    pinned_fraction=0.0,
)


class TestBitIdentity:
    def test_traced_run_matches_untraced_run(self):
        plain = run_benchmark(CONFIG)
        traced = run_benchmark(CONFIG, tracer=Tracer())
        a = dataclasses.asdict(plain)
        b = dataclasses.asdict(traced)
        assert a.pop("phase_breakdown") is None
        assert b.pop("phase_breakdown") is not None
        assert a == b

    def test_traced_wearing_run_matches_untraced(self):
        plain = run_wearing_benchmark(CONFIG)
        traced = run_wearing_benchmark(CONFIG, tracer=Tracer())
        a = dataclasses.asdict(plain)
        b = dataclasses.asdict(traced)
        a.pop("phase_breakdown"), b.pop("phase_breakdown")
        assert a == b


class TestWearingRunCoverage:
    def test_all_three_layers_present_with_dynamic_failures(self):
        tracer = Tracer()
        result = run_wearing_benchmark(WEAR_CONFIG, tracer=tracer)
        assert result.completed
        assert result.stats["dynamic_failed_lines"] > 0
        categories = {event.cat for event in tracer.events()}
        assert categories == {HARDWARE, OS, RUNTIME}
        names = {event.name for event in tracer.events()}
        # The dynamic-failure chain, layer by layer.
        assert "pcm.line_failure" in names
        assert "fbuf.park" in names
        assert "os.upcall" in names
        assert "vm.dynamic_failure_collection" in names
        assert validate_chrome_trace(chrome_trace(tracer)) == []


class TestPhaseBreakdown:
    def test_breakdown_sums_to_time_units(self):
        tracer = Tracer()
        result = run_wearing_benchmark(WEAR_CONFIG, tracer=tracer)
        total = sum(result.phase_breakdown.values())
        assert abs(total - result.time_units) <= 1e-9 * max(1.0, result.time_units)
        assert result.phase_breakdown[ROOT_PHASE] > 0
        assert any(
            phase.startswith("gc.") and units > 0
            for phase, units in result.phase_breakdown.items()
        )

    def test_untraced_run_has_no_breakdown(self):
        assert run_benchmark(CONFIG).phase_breakdown is None


class TestTimeBreakdownInvariant:
    def make_traced_vm(self):
        vm = VirtualMachine(
            VmConfig(
                heap_bytes=1 * MiB,
                failure_model=FailureModel(rate=0.20, hw_region_pages=2),
                seed=3,
                tracer=Tracer(),
            )
        )
        TraceDriver(SPEC, 3).run(vm)
        return vm

    def test_honest_breakdown_passes(self):
        vm = self.make_traced_vm()
        report = audit_vm(vm, "final")
        assert report.ok, report.render()

    def test_tampered_breakdown_is_flagged(self):
        vm = self.make_traced_vm()
        vm.tracer._phase_totals[ROOT_PHASE] += 12345.0
        invariants = {v.invariant for v in audit_vm(vm, "final").violations}
        assert "time-breakdown" in invariants
