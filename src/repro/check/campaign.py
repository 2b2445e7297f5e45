"""Randomized fault-injection audit campaigns.

A campaign runs real workloads on a *wearing* memory module — so
dynamic failures arrive mid-run through the full hardware → OS →
runtime path — with the heap auditor in paranoid, record-only mode.
Every audit pass cross-checks all four layers; the campaign aggregates
the violations (zero is the passing grade) together with evidence that
the runs actually exercised the failure machinery.

Campaign workloads pin nothing and run in roomy heaps: pinned objects
and abort-restored evacuations may *legitimately* leave live data on
failed lines (the paper's rules), and a clean campaign needs every
violation to be a real bug, not a tolerated degradation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..faults.generator import FailureModel
from ..faults.injector import FaultInjector
from ..hardware.geometry import Geometry
from ..hardware.pcm import EnduranceModel, PcmModule
from ..workloads.dacapo import workload
from ..workloads.driver import TraceDriver, estimate_min_heap
from .audit import Violation

#: Default workload trio: small/churny, medium-heavy, and LOS-heavy
#: allocation mixes, so block space, overflow path, and large object
#: space all see failures.
DEFAULT_WORKLOADS = ("luindex", "antlr", "fop")

#: The three failure scenarios each campaign cycles through.
SCENARIOS = (
    ("dynamic, 2-page clustering", 0.0, 2),
    ("dynamic, no clustering", 0.0, 0),
    ("static 10% + dynamic, no clustering", 0.10, 0),
)


@dataclass
class CampaignRun:
    """One workload x scenario audit run."""

    workload: str
    scenario: str
    seed: int
    heap_bytes: int
    audits: int
    dynamic_failures: int
    duplicate_failures: int
    upcalls: int
    collections: int
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign."""

    runs: List[CampaignRun] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        return [v for run in self.runs for v in run.violations]

    @property
    def total_dynamic_failures(self) -> int:
        return sum(run.dynamic_failures for run in self.runs)

    @property
    def total_audits(self) -> int:
        return sum(run.audits for run in self.runs)

    @property
    def ok(self) -> bool:
        return not self.violations and self.total_dynamic_failures > 0

    def render(self) -> str:
        lines = [
            f"{'workload':<12} {'scenario':<36} {'audits':>6} "
            f"{'dyn.fail':>8} {'dup':>4} {'upcalls':>7} {'violations':>10}"
        ]
        for run in self.runs:
            lines.append(
                f"{run.workload:<12} {run.scenario:<36} {run.audits:>6} "
                f"{run.dynamic_failures:>8} {run.duplicate_failures:>4} "
                f"{run.upcalls:>7} {len(run.violations):>10}"
            )
        lines.append(
            f"campaign: {len(self.runs)} runs, {self.total_audits} audits, "
            f"{self.total_dynamic_failures} dynamic failures, "
            f"{len(self.violations)} violation(s)"
        )
        if self.total_dynamic_failures == 0:
            lines.append(
                "WARNING: no dynamic failures occurred — the campaign did "
                "not exercise the failure path"
            )
        for violation in self.violations:
            lines.append("  " + violation.describe())
        return "\n".join(lines)


def _campaign_spec(name: str, scale: float):
    """A campaign-safe variant of a catalog workload.

    Pinning is disabled (pinned objects may legitimately sit on failed
    lines forever — every violation in a campaign must be a bug) and
    mutation is forced on so application stores actually wear lines.
    """
    spec = workload(name)
    if scale != 1.0:
        spec = spec.scaled(scale)
    return dataclasses.replace(
        spec,
        pinned_fraction=0.0,
        mutations_per_object=max(spec.mutations_per_object, 0.6),
    )


def _build_vm(
    spec,
    geometry: Geometry,
    static_rate: float,
    region_pages: int,
    seed: int,
    level: str,
) -> "VirtualMachine":
    """A VM over a wearing module, auditor in record-only mode."""
    # Imported lazily: runtime.vm imports check.audit at module load,
    # so a top-level import here would close a circular chain.
    from ..runtime.vm import VirtualMachine, VmConfig

    heap = 2 * estimate_min_heap(spec, seed=seed, geometry=geometry)
    block = geometry.block
    raw = (heap + block - 1) // block * block
    region = geometry.region
    pcm_bytes = (raw + region - 1) // region * region + 4 * region
    pcm = PcmModule(
        size_bytes=pcm_bytes,
        geometry=geometry,
        # Low endurance on purpose: campaign traffic peaks at a few
        # dozen writes per line, and the campaign needs lines to die
        # mid-run so the dynamic-failure path gets audited.
        endurance=EnduranceModel(mean_writes=20.0, cv=0.3, seed=seed),
        clustering_enabled=region_pages > 0,
        failure_buffer_capacity=128,
        seed=seed,
    )
    if static_rate > 0.0:
        static_map = FailureModel(rate=static_rate).build(
            pcm.n_lines, geometry, seed
        )
        pcm.inject_static_failures(static_map.failed_indices())
    injector = FaultInjector(FailureModel(), geometry=geometry, pcm=pcm)
    config = VmConfig(
        heap_bytes=heap,
        geometry=geometry,
        wear_writes=True,
        compensate=False,
        seed=seed,
        verify=level,
    )
    vm = VirtualMachine(config, injector=injector)
    vm.auditor.record_only = True
    return vm


def _campaign_run(
    name: str, w_index: int, seed: int, scale: float, level: str
) -> CampaignRun:
    """The campaign's ``w_index``-th run; its VM dies with this frame."""
    spec = _campaign_spec(name, scale)
    scenario_label, static_rate, region_pages = SCENARIOS[
        (seed + w_index) % len(SCENARIOS)
    ]
    geometry = Geometry(region_pages=region_pages or 2)
    run_seed = seed * 1000 + w_index
    vm = _build_vm(spec, geometry, static_rate, region_pages, run_seed, level)
    TraceDriver(spec, run_seed).run(vm)
    vm.auditor.final()
    return CampaignRun(
        workload=name,
        scenario=scenario_label,
        seed=run_seed,
        heap_bytes=vm.config.heap_bytes,
        audits=vm.auditor.audits_run,
        dynamic_failures=vm.stats.dynamic_failed_lines,
        duplicate_failures=vm.stats.duplicate_dynamic_failures,
        upcalls=vm.os.upcalls,
        collections=vm.stats.collections,
        violations=list(vm.auditor.violations),
    )


def run_campaign(
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 0.05,
    level: str = "paranoid",
) -> CampaignResult:
    """Run the audit campaign; deterministic for a given seed."""
    # Lazy for the same reason as in _build_vm: sim.machine imports
    # runtime.vm, which imports check.audit.
    from ..sim.machine import machine_scope

    run_one = machine_scope(_campaign_run)
    names = list(workloads) if workloads else list(DEFAULT_WORKLOADS)
    result = CampaignResult()
    for w_index, name in enumerate(names):
        result.runs.append(run_one(name, w_index, seed, scale, level))
    return result
