"""The machine digest behind the policy contract's determinism checks
sees the whole-heap structure-of-arrays state."""

from repro.faults.generator import FailureModel
from repro.sim.machine import RunConfig

from .contract import machine_digest


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
