"""The virtual-machine facade (paper sections 3.3.2 and 4).

:class:`VirtualMachine` wires the whole cooperative stack together:

* it builds (or accepts) a :class:`~repro.faults.injector.FaultInjector`
  — the aged PCM module plus the failure-aware OS;
* registers a dynamic-failure handler with the OS before requesting
  imperfect memory (the protocol the paper mandates);
* maps a compensated heap, folds the failure map into the collector's
  line metadata, and exposes ``alloc`` / ``add_root`` / ``add_ref`` /
  ``mutate`` to workloads;
* triggers collections on allocation failure and full collections when
  dynamic failures require evacuation.
"""

from __future__ import annotations

import os as _os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..check.audit import HeapAuditor, check_verify_level
from ..collectors.immix import ImmixCollector, ImmixConfig
from ..collectors.marksweep import MarkSweepCollector
from ..collectors.stats import GcStats
from ..errors import ConfigError, OutOfMemoryError
from ..faults.generator import FailureModel
from ..faults.injector import FaultInjector
from ..hardware.geometry import Geometry
from ..heap.object_model import ALIGN_MASK, ALIGN_PAD, ObjectFactory, SimObject
from ..heap.page_supply import HeapPage, PageSupply, heap_pages
from ..obs.trace import Tracer
from ..policies import policy_triple
from .time_model import DEFAULT_COST_MODEL, CostModel

#: Collector selection strings, paper notation.
COLLECTORS = ("immix", "sticky-immix", "marksweep", "sticky-marksweep")


@dataclass
class VmConfig:
    """Everything needed to build a VM deterministically."""

    heap_bytes: int
    geometry: Geometry = field(default_factory=Geometry)
    collector: str = "sticky-immix"
    failure_model: FailureModel = field(default_factory=FailureModel)
    #: Hold non-faulty bytes constant by requesting h/(1-f) raw memory.
    compensate: bool = True
    large_threshold: int = 8 * 1024
    seed: int = 0
    #: Simulate PCM wear on writes (dynamic-failure experiments).
    wear_writes: bool = False
    #: DRAM-era baseline: retire the whole page when any line fails,
    #: instead of stepping around the single failed line.
    page_retirement: bool = False
    #: Discontiguous arrays: place large objects as arraylets in line
    #: space instead of on perfect LOS pages (paper section 3.3.3).
    arraylets: bool = False
    #: Policy seams (:mod:`repro.policies`): hardware wear leveling, OS
    #: page-pool supply/migration, runtime large-object placement. The
    #: defaults reproduce the paper's hard-coded design bit-identically.
    wear_policy: str = "none"
    pool_policy: str = "paper"
    placement_policy: str = "paper"
    #: Heap-auditor level (:data:`repro.check.VERIFY_LEVELS`); None
    #: defers to the ``REPRO_VERIFY`` environment variable, defaulting
    #: to "off".
    verify: Optional[str] = None
    #: Observability: a :class:`repro.obs.Tracer` to wire through all
    #: three layers, or None (the default) for zero-cost no-op tracing.
    tracer: Optional[Tracer] = None

    def __post_init__(self) -> None:
        if self.collector not in COLLECTORS:
            raise ConfigError(
                f"unknown collector {self.collector!r}; choose from {COLLECTORS}"
            )
        if self.heap_bytes <= 0:
            raise ConfigError("heap_bytes must be positive")
        # Fail fast on unknown policy names and impossible pairings —
        # a policy conflict discovered mid-run would waste the run.
        wear, pool, placement = policy_triple(
            self.wear_policy, self.pool_policy, self.placement_policy
        )
        if placement.needs_arraylets and self.collector in (
            "marksweep",
            "sticky-marksweep",
        ):
            raise ConfigError(
                f"placement_policy {placement.name!r} needs the collector's "
                f"arraylet path; collector {self.collector!r} has none "
                f"(choose an immix collector)"
            )


class VirtualMachine:
    """A failure-aware managed runtime over simulated wearable memory."""

    def __init__(
        self,
        config: VmConfig,
        injector: Optional[FaultInjector] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.config = config
        self.geometry = config.geometry
        self.cost_model = cost_model
        self.stats = GcStats()
        self.factory = ObjectFactory()
        self._roots: Dict[int, SimObject] = {}
        self._pending_failure_gc = False
        self._displaced: List[SimObject] = []
        # _retire_pages folds the DRAM-era flag and the MigrantStore-
        # style pool policy into one whole-page switch.
        self.wear_policy, self.pool_policy, self.placement_policy = policy_triple(
            config.wear_policy, config.pool_policy, config.placement_policy
        )
        self._retire_pages = (
            config.page_retirement or self.pool_policy.retire_whole_pages
        )
        self.tracer = config.tracer
        if self.tracer is not None:
            # Simulated time is a pure function of the stats counters,
            # which only ever grow — a monotone clock for event stamps.
            self.tracer.bind_clock(lambda: self.cost_model.total_time(self.stats))
        self.injector = injector or self._build_injector()
        self.os = self.injector.os
        # Protocol order matters: register the handler, then map
        # imperfect memory (section 3.2.2). The tracer is wired first so
        # the initial heap-mapping system calls are already on record.
        if self.tracer is not None:
            self._wire_tracer()
        self.os.register_failure_handler(self._on_failure_upcall)
        self._heap_pages = self._map_heap()
        self.supply = PageSupply(self._heap_pages, self.geometry)
        self.collector = self._build_collector()
        if self.tracer is not None:
            self.collector.tracer = self.tracer
            self.collector.los.tracer = self.tracer
        self.auditor = HeapAuditor(self, level=self._verify_level())
        # Only "paranoid" audits on allocation; other levels skip the call.
        self._audit_alloc = (
            self.auditor.after_alloc if self.auditor.level == "paranoid" else None
        )

    def _wire_tracer(self) -> None:
        """Push the tracer into every instrumented layer."""
        tracer = self.tracer
        self.injector.pcm.set_tracer(tracer)
        self.os.tracer = tracer
        tracer.instant(
            "vm.start",
            args={
                "collector": self.config.collector,
                "heap_bytes": self.config.heap_bytes,
                "static_failed_lines": self.injector.pcm.failed_line_count(),
            },
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _verify_level(self) -> str:
        level = self.config.verify
        if level is None:
            level = _os.environ.get("REPRO_VERIFY", "off")
        return check_verify_level(level)

    def _raw_heap_bytes(self) -> int:
        rate = self.config.failure_model.rate
        if self.config.compensate and rate > 0.0:
            return FaultInjector.compensated_bytes(
                self.config.heap_bytes, rate, self.geometry.block
            )
        block = self.geometry.block
        return (self.config.heap_bytes + block - 1) // block * block

    def _build_injector(self) -> FaultInjector:
        raw = self._raw_heap_bytes()
        region = self.geometry.region
        pcm_bytes = (raw + region - 1) // region * region
        return FaultInjector(
            self.config.failure_model,
            pcm_bytes=pcm_bytes,
            geometry=self.geometry,
            seed=self.config.seed,
            wear_policy=self.wear_policy,
            pool_policy=self.pool_policy,
        )

    def _map_heap(self) -> List[HeapPage]:
        """Map the heap and fold the OS failure bitmaps into heap pages,
        expanding every page's bitmap into Immix fail marks in one pass."""
        n_pages = self._raw_heap_bytes() // self.geometry.page
        os_pages = self.os.mmap_imperfect(n_pages, owner="runtime")
        failures = self.os.map_failures(os_pages)
        if self._retire_pages:
            # Whole-page view (DRAM-era baseline, MigrantStore-style
            # migration): a page with any failed line is dead.
            whole_page = (1 << self.geometry.lines_per_page) - 1
            failures = {
                index: whole_page if bits else 0 for index, bits in failures.items()
            }
        return heap_pages(failures, self.geometry)

    def _build_collector(self):
        name = self.config.collector
        if name in ("immix", "sticky-immix"):
            return ImmixCollector(
                self.supply,
                self.geometry,
                config=ImmixConfig(
                    large_threshold=self.config.large_threshold,
                    generational=name == "sticky-immix",
                    arraylets=self.config.arraylets,
                ),
                placement=self.placement_policy,
                stats=self.stats,
                factory=self.factory,
            )
        return MarkSweepCollector(
            self.supply,
            self.geometry,
            generational=name == "sticky-marksweep",
            large_threshold=self.config.large_threshold,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # Mutator interface
    # ------------------------------------------------------------------
    def alloc(self, size: int, pinned: bool = False) -> SimObject:
        """Allocate an object, collecting (and retrying) as needed.

        Mints the object inline, as :meth:`ObjectFactory.make` would.
        """
        if self._pending_failure_gc:
            self._failure_collection()
        if size < 0:
            raise ValueError("object size must be >= 0")
        factory = self.factory
        obj = SimObject(factory._next_oid, (size + ALIGN_PAD) & ALIGN_MASK, pinned)
        factory._next_oid += 1
        factory.allocated_objects += 1
        factory.allocated_bytes += obj.size
        if not self.collector.allocate(obj):
            self.collect()
            if not self.collector.allocate(obj, after_gc=True):
                self.collect(force_full=True)
                if not self.collector.allocate(obj, after_gc=True):
                    raise OutOfMemoryError(
                        f"cannot place {obj.size} B object in a "
                        f"{self.config.heap_bytes} B heap "
                        f"({self.config.failure_model.describe()})"
                    )
        if self.config.wear_writes:
            self._write_object(obj)
        if self._audit_alloc is not None:
            self._audit_alloc()
        return obj

    def add_root(self, obj: SimObject) -> None:
        self._roots[obj.oid] = obj

    def remove_root(self, obj: SimObject) -> None:
        self._roots.pop(obj.oid, None)

    def add_ref(self, parent: SimObject, child: SimObject) -> None:
        refs = parent.refs
        if refs:
            refs.append(child)  # type: ignore[attr-defined]
        else:
            parent.refs = [child]  # a leaf's first reference
        if parent.old and not child.old:
            # Only an old->young edge can need remembering; the barrier
            # itself decides whether this collector keeps one.
            self.collector.write_barrier(parent, child)
        if self.config.wear_writes:
            # A field store wears the object's first word; addressed
            # here, as in mutate, so a store is one PCM call.
            block, offset = parent.block, parent.offset
            if block is not None and offset is not None and parent.size:
                page_size = self.geometry.page
                page_index = block.pages[offset // page_size].index
                if page_index >= 0:  # a borrowed DRAM page has no wear
                    self.injector.pcm.write(
                        page_index * page_size + offset % page_size, 8, data=parent.oid
                    )
            else:
                self._write_unblocked_slot(parent)

    def mutate(self, obj: SimObject) -> None:
        """An application store into the object (wears its first word)."""
        if self.config.wear_writes:
            block, offset = obj.block, obj.offset
            if block is not None and offset is not None and obj.size:
                page_size = self.geometry.page
                page_index = block.pages[offset // page_size].index
                if page_index >= 0:  # a borrowed DRAM page has no wear
                    self.injector.pcm.write(
                        page_index * page_size + offset % page_size, 8, data=obj.oid
                    )
            else:
                self._write_unblocked_slot(obj)

    def roots(self) -> List[SimObject]:
        return list(self._roots.values())

    @property
    def live_root_count(self) -> int:
        return len(self._roots)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self, force_full: bool = False) -> dict:
        result = self.collector.collect(self.roots(), force_full=force_full)
        self._replace_displaced()
        self.auditor.after_gc()
        return result

    def _failure_collection(self) -> None:
        """Full collection forced by a dynamic failure (section 4.2)."""
        self._pending_failure_gc = False
        self.stats.dynamic_failure_collections += 1
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "vm.dynamic_failure_collection",
                args={"pending_displaced": len(self.collector.displaced)}
                if hasattr(self.collector, "displaced")
                else None,
            )
        self.collect(force_full=True)

    def _replace_displaced(self) -> None:
        displaced = getattr(self.collector, "displaced", self._displaced)
        while displaced:
            obj = displaced.pop()
            if not self.collector.allocate(obj, after_gc=True):
                displaced.append(obj)
                raise OutOfMemoryError("cannot re-place object displaced by failure")

    # ------------------------------------------------------------------
    # Dynamic failures (OS up-call)
    # ------------------------------------------------------------------
    def _on_failure_upcall(self, events: Sequence) -> None:
        """OS handler: route each failed line into the collector."""
        tr = self.tracer
        if tr is not None:
            tr.instant("vm.failure_upcall", args={"events": len(events)})
        needs_gc = False
        for event in events:
            if isinstance(self.collector, ImmixCollector):
                if self._retire_pages:
                    # Whole-page handling (DRAM retirement, MigrantStore
                    # migration): every line of the page is treated as
                    # failed, evacuating the whole page.
                    for offset in range(self.geometry.lines_per_page):
                        needs_gc |= self.collector.note_dynamic_failure(
                            event.page_index, offset
                        )
                else:
                    needs_gc |= self.collector.note_dynamic_failure(
                        event.page_index, event.line_offset
                    )
            else:
                # The MS baseline cannot relocate; the OS would have to
                # remap the page (paper section 3.3.1). Count it only.
                needs_gc = False
        if needs_gc:
            self._pending_failure_gc = True
        self.auditor.after_upcall()

    # ------------------------------------------------------------------
    # Physical writes (wear modelling)
    # ------------------------------------------------------------------
    def _write_object(self, obj: SimObject) -> None:
        """Write the object's memory through to the PCM module."""
        block, offset, size = obj.block, obj.offset, obj.size
        if block is not None and offset is not None and size:
            page_size = self.geometry.page
            in_page = offset % page_size
            if in_page + size <= page_size:
                # One page: address it directly, no extents list.
                page_index = block.pages[offset // page_size].index
                if page_index >= 0:  # a borrowed DRAM page has no wear
                    self.injector.pcm.write(
                        page_index * page_size + in_page, size, data=obj.oid
                    )
                return
        for page_index, offset, length in self._physical_extents(obj):
            if page_index < 0:
                continue  # borrowed DRAM page: no wear
            self.injector.pcm.write(
                page_index * self.geometry.page + offset, length, data=obj.oid
            )

    def _write_unblocked_slot(self, obj: SimObject) -> None:
        """A field store into an object no block holds (a large object,
        or one not placed): the first word of its first extent."""
        extents = self._physical_extents(obj)
        if not extents:
            return
        page_index, offset, _ = extents[0]
        if page_index < 0:
            return
        self.injector.pcm.write(page_index * self.geometry.page + offset, 8, data=obj.oid)

    def _physical_extents(self, obj: SimObject) -> List[tuple]:
        """(page_index, offset_in_page, length) extents covering the object."""
        page_size = self.geometry.page
        extents: List[tuple] = []
        if obj.block is not None and obj.offset is not None:
            start = obj.offset
            end = obj.offset + obj.size
            while start < end:
                slot = start // page_size
                in_page = start % page_size
                length = min(end - start, page_size - in_page)
                page = obj.block.pages[slot]
                extents.append((page.index, in_page, length))
                start += length
        elif obj.los_placement is not None:
            remaining = obj.size
            for page in obj.los_placement.pages:  # empty for arraylets
                length = min(remaining, page_size)
                extents.append((page.index, 0, length))
                remaining -= length
                if remaining <= 0:
                    break
        return extents

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def simulated_time(self) -> float:
        return self.cost_model.total_time(self.stats)

    def simulated_ms(self) -> float:
        return self.cost_model.total_ms(self.stats)

    def heap_census(self) -> dict:
        return self.collector.heap_census()
