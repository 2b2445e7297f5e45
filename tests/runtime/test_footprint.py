"""The Python memory a simulated machine holds.

The paper-grid cell pmd at 50% failures with two-page clustering maps a
3.3 MB simulated heap over about 108 k PCM lines. Its failed lines are
kept as per-line arrays from the generator through the PCM module to
the OS table, so the built VM holds a few megabytes of Python objects;
with one Python int set per layer it held 11.4 MB.

A whole cell runs with CPython's cyclic collector off, so what it drops
must be freed by reference counting alone: a block a sweep retires
holds no cycle, and a leaf object holds no list. With a retired block
kept alive by a cycle until the cell ended, the pmd 10% cell's traced
peak was 8.2 MiB.

A page's failures travel as its bitmap from the OS table to the heap
pages, so building a machine makes no Python set per failing page; the
end-of-cell collector pass has that many fewer objects to walk.
"""

import gc
import tracemalloc

from repro.faults.generator import FailureModel
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.sim.machine import RunConfig, min_heap_bytes, run_benchmark
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


def test_pmd_ten_percent_cell_peaks_under_5_mib():
    """The paper-grid cell pmd at 10% failures, run end to end."""
    config = RunConfig(
        workload="pmd",
        collector="sticky-immix",
        failure_model=FailureModel(rate=0.1),
        scale=1.0,
        seed=7,
    )
    # Warm every import and cache first.
    run_benchmark(RunConfig(workload="pmd", failure_model=FailureModel(rate=0.1), scale=0.05))
    gc.collect()
    tracemalloc.start()
    try:
        run_benchmark(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * MiB, f"the cell peaked at {peak / MiB:.2f} MiB"


def _frozensets_made_building(rate):
    config = RunConfig(
        workload="pmd", failure_model=FailureModel(rate=rate), scale=0.02, seed=5
    )
    vm_config = VmConfig(
        heap_bytes=int(min_heap_bytes(config) * config.heap_multiplier),
        geometry=config.geometry(),
        failure_model=config.failure_model,
        seed=config.seed,
    )
    VirtualMachine(vm_config)  # warm every import and cache first
    gc.collect()
    before = sum(isinstance(o, frozenset) for o in gc.get_objects())
    vm = VirtualMachine(vm_config)
    after = sum(isinstance(o, frozenset) for o in gc.get_objects())
    return after - before, vm


def test_vm_build_makes_no_frozenset_per_failing_page():
    clean, _ = _frozensets_made_building(0.0)
    failing, vm = _frozensets_made_building(0.5)
    imperfect = len(vm.os.failure_table.imperfect_pages())
    assert imperfect > 100
    assert failing <= clean, (
        f"{failing - clean} more frozensets with {imperfect} failing pages"
    )
