"""The Python memory a freshly built VM holds for its failure state.

The paper-grid cell pmd at 50% failures with two-page clustering maps a
3.3 MB simulated heap over about 108 k PCM lines. Its failed lines are
kept as per-line arrays from the generator through the PCM module to
the OS table, so the built VM holds a few megabytes of Python objects;
with one Python int set per layer it held 11.4 MB.
"""

import gc
import tracemalloc

from repro.faults.generator import FailureModel
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.sim.machine import RunConfig, min_heap_bytes
from repro.units import MiB


def test_pmd_half_failed_vm_holds_under_5_mib():
    config = RunConfig(
        workload="pmd", failure_model=FailureModel(rate=0.5, hw_region_pages=2), seed=3
    )
    vm_config = VmConfig(
        heap_bytes=int(min_heap_bytes(config) * config.heap_multiplier),
        geometry=config.geometry(),
        failure_model=config.failure_model,
        seed=config.seed,
    )
    VirtualMachine(vm_config)  # warm every import and cache first
    gc.collect()
    tracemalloc.start()
    try:
        vm = VirtualMachine(vm_config)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vm.injector.pcm.failed_fraction() > 0.4
    assert held < 5 * MiB, f"built VM holds {held / MiB:.2f} MiB"
