"""The fault-injection module (paper section 5).

"We evaluate our approach running natively on DRAM, and instrument the
managed runtime with a fault injection module between the OS memory
allocator and the VM memory allocation module. When the latter allocates
memory, part of this memory is made defective by the fault injection
module."

:class:`FaultInjector` reproduces that shim: it takes a
:class:`~repro.faults.generator.FailureModel`, pre-ages a PCM module
with the generated static failures, and hands the VM memory through the
regular OS system calls, so the rest of the stack cannot tell injected
failures from organically worn ones.
"""

from __future__ import annotations

from typing import Optional

from ..hardware.geometry import Geometry
from ..hardware.pcm import PcmModule
from ..osim.memory_manager import OsMemoryManager
from .generator import FailureModel
from .maps import FailureMap


class FaultInjector:
    """Builds an aged memory system from a failure model.

    Parameters
    ----------
    model:
        The failure distribution to inject.
    pcm_bytes:
        Module capacity; must cover the heap the VM will request (with
        compensation headroom — see :meth:`compensated_bytes`).
    geometry:
        Shared geometry. The model's ``hw_region_pages`` only controls
        the *injected distribution*; dynamic clustering hardware on the
        module is enabled to match.
    seed:
        Seed for map generation; vary per invocation like the paper's
        20 invocations per benchmark.
    wear_policy:
        A :class:`~repro.policies.wear.WearLevelingPolicy` whose
        ``transform_static_map`` reshapes the generated map *before*
        injection — decoder remapping happens below every other layer,
        so the OS and runtime see one coherent post-remap view. None
        means the paper's design (no transform).
    pool_policy:
        A :class:`~repro.policies.pool.PagePoolPolicy` threaded into
        the OS page pools (supply order). None means the paper's.
    """

    def __init__(
        self,
        model: FailureModel,
        pcm_bytes: int = 0,
        geometry: Optional[Geometry] = None,
        dram_pages: int = 64,
        seed: int = 0,
        pcm: Optional[PcmModule] = None,
        wear_policy=None,
        pool_policy=None,
    ) -> None:
        self.model = model
        self.geometry = geometry or (pcm.geometry if pcm else Geometry())
        self.seed = seed
        self.wear_policy = wear_policy
        self.pool_policy = pool_policy
        if pcm is not None:
            # An existing (possibly already worn) module: lifetime
            # experiments thread one module through many iterations.
            self.pcm = pcm
            self.static_map = FailureMap(pcm.n_lines, pcm.failed_logical_indices())
        else:
            self.pcm = PcmModule(
                size_bytes=pcm_bytes,
                geometry=self.geometry,
                clustering_enabled=model.hw_region_pages > 0,
            )
            static_map = model.build(self.pcm.n_lines, self.geometry, seed)
            if wear_policy is not None:
                static_map = wear_policy.transform_static_map(
                    static_map, self.geometry, seed
                )
            self.static_map = static_map
            self.pcm.inject_static_failures(self.static_map.failed_indices())
        self.os = OsMemoryManager(
            self.pcm,
            dram_pages=dram_pages,
            geometry=self.geometry,
            pool_policy=pool_policy,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def compensated_bytes(heap_bytes: int, rate: float, page: int) -> int:
        """Raw bytes needed so that non-faulty bytes equal ``heap_bytes``.

        The paper's compensation rule (section 6.2): given heap size h
        and failure rate f, request h / (1 - f), rounded up to pages.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"cannot compensate a failure rate of {rate}")
        raw = int(heap_bytes / (1.0 - rate))
        return (raw + page - 1) // page * page

    def failure_map_for_pages(self, first_page: int, n_pages: int) -> FailureMap:
        """The injected map over a page span, re-based to its start."""
        lines_per_page = self.geometry.lines_per_page
        span_map = FailureMap(self.pcm.n_lines, self.pcm.failed_logical_indices())
        return span_map.subset(first_page * lines_per_page, n_pages * lines_per_page)

    def describe(self) -> str:
        return (
            f"{self.model.describe()} over {self.pcm.size_bytes} bytes "
            f"({self.static_map.failed_count} lines injected, seed {self.seed})"
        )
