"""Memory-lifetime experiments (paper sections 2.2, 7.2).

The static-failure experiments measure performance at fixed failure
levels; these experiments instead *age* a single PCM module by running
a workload on it over and over with real write traffic, exercising the
full dynamic-failure path: wear -> ECC exhaustion -> failure buffer ->
OS interrupt -> runtime up-call -> evacuation.

They answer the paper's discussion-section questions:

* how much longer does a failure-aware runtime keep a module useful,
  compared with the retire-the-page-on-first-failure baseline?
* is wear leveling helpful or harmful once failures start
  ("Wear Leveling Considered Harmful", section 7.2)?
* how does failure clustering hardware change the end of life?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ConfigError, OutOfMemoryError, ReproError
from ..faults.generator import FailureModel
from ..faults.injector import FaultInjector
from ..hardware.geometry import Geometry
from ..hardware.pcm import EnduranceModel, PcmModule
from ..hardware.wear_leveling import NoWearLeveling, StartGapWearLeveler, WearLeveler
from ..runtime.vm import VirtualMachine, VmConfig
from ..workloads.driver import TraceDriver, estimate_min_heap
from ..workloads.spec import WorkloadSpec
from .machine import machine_scope


@dataclass
class IterationRecord:
    """One workload iteration on the aging module."""

    iteration: int
    completed: bool
    failed_fraction: float
    dynamic_failures: int
    simulated_ms: float


@dataclass
class LifetimeResult:
    """Outcome of aging one module to death (or to the iteration cap)."""

    label: str
    iterations_completed: int = 0
    records: List[IterationRecord] = field(default_factory=list)
    final_failed_fraction: float = 0.0
    wear_spread_cv: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.label}: {self.iterations_completed} iterations, "
            f"{self.final_failed_fraction:.1%} of lines failed at the end"
        )


def write_heavy(spec: WorkloadSpec, mutations_per_object: float = 4.0) -> WorkloadSpec:
    """A copy of ``spec`` with application stores enabled (wear traffic)."""
    from dataclasses import replace

    return replace(spec, mutations_per_object=mutations_per_object)


def run_lifetime(
    spec: WorkloadSpec,
    heap_multiplier: float = 2.0,
    geometry: Optional[Geometry] = None,
    wear_leveler: Optional[WearLeveler] = None,
    clustering: bool = True,
    endurance_mean_writes: float = 60.0,
    endurance_cv: float = 0.35,
    max_iterations: int = 40,
    seed: int = 0,
    label: str = "",
    page_retirement: bool = False,
) -> LifetimeResult:
    """Age one module by repeatedly running ``spec`` on it.

    ``endurance_mean_writes`` is deliberately tiny (a real cell endures
    ~1e8 writes) so modules die within a handful of iterations; the
    comparative behaviour between configurations is the result.
    """
    geometry = geometry or Geometry()
    if spec.mutations_per_object <= 0:
        raise ReproError(
            "lifetime experiments need a write-heavy workload; set "
            "mutations_per_object on the spec"
        )
    min_heap = estimate_min_heap(spec, seed=seed, geometry=geometry)
    heap = int(min_heap * heap_multiplier)
    block = geometry.block
    heap = (heap + block - 1) // block * block
    region = geometry.region
    pcm_bytes = (heap + region - 1) // region * region + region
    pcm = PcmModule(
        size_bytes=pcm_bytes,
        geometry=geometry,
        endurance=EnduranceModel(
            mean_writes=endurance_mean_writes, cv=endurance_cv, seed=seed
        ),
        clustering_enabled=clustering,
        wear_leveler=wear_leveler or NoWearLeveling(),
        failure_buffer_capacity=128,
        seed=seed,
    )
    result = LifetimeResult(label=label or _default_label(wear_leveler, clustering))
    for iteration in range(max_iterations):
        record = _age_once(pcm, spec, heap, geometry, seed, iteration, page_retirement)
        result.records.append(record)
        if not record.completed:
            break
        result.iterations_completed += 1
    result.final_failed_fraction = pcm.failed_fraction()
    from ..hardware.wear_leveling import spread_statistics

    result.wear_spread_cv = spread_statistics(pcm.write_count_histogram())["cv"]
    return result


@machine_scope
def _age_once(
    pcm: PcmModule,
    spec: WorkloadSpec,
    heap: int,
    geometry: Geometry,
    seed: int,
    iteration: int,
    page_retirement: bool,
) -> IterationRecord:
    """One iteration: a fresh VM over the aging module, freed on return.

    The OS wires the module's interrupt line to itself; unwiring it at
    the end leaves nothing older than the call holding the machine.
    """
    injector = FaultInjector(FailureModel(), geometry=geometry, seed=seed, pcm=pcm)
    config = VmConfig(
        heap_bytes=heap,
        geometry=geometry,
        collector="sticky-immix",
        compensate=False,
        seed=seed,
        wear_writes=True,
        page_retirement=page_retirement,
    )
    vm = VirtualMachine(config, injector=injector)
    completed = True
    try:
        TraceDriver(spec, seed + iteration).run(vm)
    except OutOfMemoryError:
        completed = False
    finally:
        pcm.connect_interrupt(None)
    return IterationRecord(
        iteration=iteration,
        completed=completed,
        failed_fraction=pcm.failed_fraction(),
        dynamic_failures=vm.stats.dynamic_failure_collections,
        simulated_ms=vm.simulated_ms(),
    )


def _default_label(wear_leveler: Optional[WearLeveler], clustering: bool) -> str:
    leveling = (
        "start-gap" if isinstance(wear_leveler, StartGapWearLeveler) else "no leveling"
    )
    return f"{leveling}, {'2CL' if clustering else 'no clustering'}"


def retire_on_first_failure_lifetime(
    spec: WorkloadSpec,
    heap_multiplier: float = 2.0,
    geometry: Optional[Geometry] = None,
    endurance_mean_writes: float = 60.0,
    max_iterations: int = 40,
    seed: int = 0,
) -> LifetimeResult:
    """The DRAM-era baseline: a page dies with its first failed line.

    The runtime treats every line of a failing page as failed — the
    paper's '98 % of working memory wasted' strawman. Used as the
    comparison point for how much life failure awareness buys.
    """
    return run_lifetime(
        spec,
        heap_multiplier=heap_multiplier,
        geometry=geometry,
        clustering=False,
        endurance_mean_writes=endurance_mean_writes,
        max_iterations=max_iterations,
        seed=seed,
        label="retire page on first failure",
        page_retirement=True,
    )


#: The wear-management strategies a lifetime study compares, in the
#: paper's order: page retirement, failure awareness alone, with
#: two-page clustering, and with Start-Gap wear leveling.
STRATEGIES = ("retire", "aware", "clustered", "start-gap")


def run_strategy(
    spec: WorkloadSpec,
    strategy: str,
    *,
    max_iterations: int,
    endurance_mean_writes: float,
    seed: int = 0,
) -> LifetimeResult:
    """Age one module under ``strategy``, one of :data:`STRATEGIES`."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown lifetime strategy {strategy!r}")
    if strategy == "retire":
        return retire_on_first_failure_lifetime(
            spec,
            max_iterations=max_iterations,
            endurance_mean_writes=endurance_mean_writes,
            seed=seed,
        )
    return run_lifetime(
        spec,
        clustering=strategy == "clustered",
        wear_leveler=(
            StartGapWearLeveler(gap_write_interval=20)
            if strategy == "start-gap"
            else None
        ),
        max_iterations=max_iterations,
        endurance_mean_writes=endurance_mean_writes,
        seed=seed,
    )
