"""One benchmark run: workload x heap x collector x failure model.

This is the reproduction's unit of measurement, equivalent to one
invocation of a DaCapo benchmark in the paper's harness.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Callable, Dict, Optional, TypeVar

from ..errors import OutOfMemoryError
from ..faults.generator import FailureModel
from ..faults.injector import FaultInjector
from ..hardware.geometry import Geometry
from ..hardware.pcm import EnduranceModel, PcmModule
from ..policies import resolve_pool_policy, resolve_wear_policy
from ..obs.trace import Tracer
from ..runtime.time_model import DEFAULT_COST_MODEL, CostModel
from ..runtime.vm import VirtualMachine, VmConfig
from ..workloads.dacapo import workload
from ..workloads.driver import TraceDriver, estimate_min_heap
from ..workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class RunConfig:
    """Everything defining one run, hashable for caching/reporting."""

    workload: str
    heap_multiplier: float = 2.0
    collector: str = "sticky-immix"
    failure_model: FailureModel = field(default_factory=FailureModel)
    immix_line: int = 256
    region_pages: int = 2
    compensate: bool = True
    #: Discontiguous arrays instead of the page-grained LOS.
    arraylets: bool = False
    seed: int = 0
    #: Scale factor on total allocation (quick benchmark modes).
    scale: float = 1.0
    #: Policy seams (see :mod:`repro.policies`); the defaults reproduce
    #: the paper's hard-coded design bit-identically.
    wear_policy: str = "none"
    pool_policy: str = "paper"
    placement_policy: str = "paper"

    def geometry(self) -> Geometry:
        return Geometry(immix_line=self.immix_line, region_pages=self.region_pages)

    def spec(self) -> WorkloadSpec:
        spec = workload(self.workload)
        if self.scale != 1.0:
            spec = spec.scaled(self.scale)
        return spec


@dataclass
class RunResult:
    """Outcome of one run."""

    config: RunConfig
    completed: bool
    time_units: float
    time_ms: float
    stats: dict
    heap_bytes: int
    min_heap_bytes: int
    perfect_page_demand: int
    borrowed_pages: int
    full_gc_pause_ms: float
    failure_note: str = ""
    #: Per-phase simulated-time breakdown (mutator, gc.mark, ...) when
    #: the run was traced; the values sum to ``time_units``.
    phase_breakdown: Optional[Dict[str, float]] = None

    @property
    def dnf(self) -> bool:
        return not self.completed


@lru_cache(maxsize=512)
def _min_heap(workload_name: str, immix_line: int, region_pages: int, scale: float) -> int:
    geometry = Geometry(immix_line=immix_line, region_pages=region_pages)
    spec = workload(workload_name)
    if scale != 1.0:
        spec = spec.scaled(scale)
    return estimate_min_heap(spec, geometry=geometry)


def min_heap_bytes(config: RunConfig) -> int:
    return _min_heap(
        config.workload, config.immix_line, config.region_pages, config.scale
    )


_Run = TypeVar("_Run", bound=Callable[..., object])


def machine_scope(run: _Run) -> _Run:
    """Pause CPython's cyclic collector for one simulated machine's life.

    A live machine is many small cyclic Python objects (blocks and the
    objects in them, the OS failure handler and the VM), and CPython's
    collector would walk them over and over while they are alive, then
    leave the dead machine for a full generation-2 pass. Instead, the
    wrapped call runs with the collector disabled. What the run drops
    holds no cycle (a block a sweep retires refers to nothing that
    refers back to it, and a leaf object holds no list), so reference
    counting frees it at once. On exit, normal or by exception, one
    generation-0 pass frees only the final machine and the caller's
    collector state is restored. Everything born in the run is still in
    generation 0, so that pass walks the run's own objects and none of
    the rest of the process: the blocks and heap objects, a slotted
    ``PhysicalPage`` per PCM page (its failure bitmap is an int) and a
    ``HeapPage`` per heap page (the bitmap and its Immix fail marks as
    bytes), so failing pages add no set for the pass to walk.

    The contract: nothing created before the call may still hold the
    machine when it returns, or the pass keeps it and promotes it to an
    older generation. That is why :func:`_drive_and_summarize` stops a
    passed-in tracer's clock. For the same reason scopes do not nest:
    an inner pass would promote the outer machine.
    """

    @wraps(run)
    def scoped(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            gc.collect(0)
            if was_enabled:
                gc.enable()

    return scoped  # type: ignore[return-value]


@machine_scope
def run_benchmark(
    config: RunConfig,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    verify: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Execute one benchmark invocation; never raises on heap exhaustion.

    A workload that cannot complete in its configured heap — the paper's
    "some configurations cannot execute some of the benchmarks" — comes
    back with ``completed=False`` so aggregation can truncate curves the
    way the paper's figures do.

    ``verify`` enables the cross-layer heap auditor at the given level
    (see :data:`repro.check.VERIFY_LEVELS`); kept out of
    :class:`RunConfig` so cached results stay comparable across
    verification settings. Violations raise
    :class:`~repro.errors.HeapAuditError`.

    ``tracer`` threads a :class:`repro.obs.Tracer` through all three
    layers; the result then carries a per-phase time breakdown. Also
    kept out of :class:`RunConfig`: tracing never changes behaviour, so
    traced and untraced results are interchangeable.
    """
    geometry = config.geometry()
    spec = config.spec()
    min_heap = min_heap_bytes(config)
    heap = int(min_heap * config.heap_multiplier)
    vm_config = VmConfig(
        heap_bytes=heap,
        geometry=geometry,
        collector=config.collector,
        failure_model=config.failure_model,
        compensate=config.compensate,
        arraylets=config.arraylets,
        seed=config.seed,
        wear_policy=config.wear_policy,
        pool_policy=config.pool_policy,
        placement_policy=config.placement_policy,
        verify=verify,
        tracer=tracer,
    )
    vm = VirtualMachine(vm_config, cost_model=cost_model)
    driver = TraceDriver(spec, config.seed)
    return _drive_and_summarize(
        vm, driver, config, cost_model, min_heap, heap, tracer
    )


def _drive_and_summarize(
    vm: VirtualMachine,
    driver: TraceDriver,
    config: RunConfig,
    cost_model: CostModel,
    min_heap: int,
    heap: int,
    tracer: Optional[Tracer],
) -> RunResult:
    """Drive the workload over a built VM and summarize the outcome."""
    completed = True
    note = ""
    try:
        driver.run(vm)
        vm.auditor.final()
    except OutOfMemoryError as exc:
        completed = False
        note = str(exc)
    if tracer is not None:
        # The caller's tracer outlives the run: stop its clock closure
        # holding the VM, so machine_scope's pass can free the machine.
        tracer.stop_clock()
    stats = vm.stats
    geometry = vm.geometry
    # Pause estimation needs the live volume a full-heap trace would
    # visit; benchmarks that never escalated past nursery collections
    # fall back to the workload's peak live set (min heap / headroom).
    mean_live = stats.mean_full_gc_live_bytes() or min_heap / 1.3
    lines_est = heap // geometry.immix_line
    return RunResult(
        config=config,
        completed=completed,
        time_units=cost_model.total_time(stats),
        time_ms=cost_model.total_ms(stats),
        stats=stats.snapshot(),
        heap_bytes=heap,
        min_heap_bytes=min_heap,
        perfect_page_demand=vm.supply.accountant.total_perfect_demand,
        borrowed_pages=vm.supply.accountant.borrowed,
        full_gc_pause_ms=cost_model.full_gc_pause_ms(int(mean_live), lines_est),
        failure_note=note,
        phase_breakdown=tracer.phase_breakdown() if tracer is not None else None,
    )


@machine_scope
def run_wearing_benchmark(
    config: RunConfig,
    mean_writes: float = 25.0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    verify: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """One run on a *wearing* module, so dynamic failures arrive mid-run.

    :func:`run_benchmark` models an aged module whose failures are all
    static; its writes never wear lines, so the dynamic path (failure
    buffer → OS upcall → evacuation collection) stays cold. This
    variant — the same recipe as the audit campaigns — gives every
    line a low sampled endurance (``mean_writes``), enables
    write-through wear, and forces enough mutation that application
    stores actually kill lines. It is the backing for ``repro bench
    --wear``, whose trace then holds hardware-layer events too.
    """
    import dataclasses as _dc

    geometry = config.geometry()
    spec = config.spec()
    # Campaign recipe: mutation forced on so stores wear lines; pinning
    # left alone (tracing tolerates degradations, unlike audits).
    spec = _dc.replace(
        spec, mutations_per_object=max(spec.mutations_per_object, 0.6)
    )
    min_heap = min_heap_bytes(config)
    heap = int(min_heap * config.heap_multiplier)
    block = geometry.block
    raw = (heap + block - 1) // block * block
    region = geometry.region
    pcm_bytes = (raw + region - 1) // region * region + 4 * region
    wear = resolve_wear_policy(config.wear_policy)
    pcm = PcmModule(
        size_bytes=pcm_bytes,
        geometry=geometry,
        endurance=EnduranceModel(mean_writes=mean_writes, cv=0.3, seed=config.seed),
        clustering_enabled=config.region_pages > 0,
        wear_leveler=wear.build_leveler(geometry, config.seed),
        failure_buffer_capacity=128,
        seed=config.seed,
    )
    if config.failure_model.rate > 0.0:
        static_map = config.failure_model.build(pcm.n_lines, geometry, config.seed)
        static_map = wear.transform_static_map(static_map, geometry, config.seed)
        pcm.inject_static_failures(static_map.failed_indices())
    injector = FaultInjector(
        FailureModel(),
        geometry=geometry,
        pcm=pcm,
        pool_policy=resolve_pool_policy(config.pool_policy),
    )
    vm_config = VmConfig(
        heap_bytes=heap,
        geometry=geometry,
        collector=config.collector,
        wear_writes=True,
        compensate=False,
        arraylets=config.arraylets,
        seed=config.seed,
        wear_policy=config.wear_policy,
        pool_policy=config.pool_policy,
        placement_policy=config.placement_policy,
        verify=verify,
        tracer=tracer,
    )
    vm = VirtualMachine(vm_config, injector=injector, cost_model=cost_model)
    driver = TraceDriver(spec, config.seed)
    return _drive_and_summarize(
        vm, driver, config, cost_model, min_heap, heap, tracer
    )
