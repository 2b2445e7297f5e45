"""The OS's batch absorption of static failures against its per-line oracle.

An aged module's failures reach the failure table, the page descriptors
and the page pools in one batch when the OS boots. The oracle
(:func:`tests.heap.oracles.absorb_static_failures_reference`) feeds the
same lines through the dynamic-failure bookkeeping one at a time; every
piece of OS state must come out identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.generator import FailureModel
from repro.hardware.geometry import Geometry
from repro.hardware.pcm import PcmModule
from repro.osim.memory_manager import OsMemoryManager
from tests.heap.oracles import (
    absorb_static_failures_reference,
    os_absorption_state,
)

#: 32, 64 and 128 PCM lines per page.
GEOMETRIES = [Geometry(page=2048), Geometry(), Geometry(page=8192)]


def _model(kind: str, rate: float) -> FailureModel:
    if kind == "clustered":
        return FailureModel(rate=rate, cluster_bytes=256)
    if kind == "hw-clustered":
        return FailureModel(rate=rate, hw_region_pages=2)
    return FailureModel(rate=rate)


def bulk_and_oracle(geometry, failed_lines, n_regions):
    size = n_regions * geometry.region

    def module():
        return PcmModule(size_bytes=size, geometry=geometry)

    aged = module()
    aged.inject_static_failures(failed_lines)
    bulk = OsMemoryManager(aged, dram_pages=4)
    oracle = OsMemoryManager(module(), dram_pages=4)
    absorb_static_failures_reference(oracle, failed_lines)
    return bulk, oracle


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    kind=st.sampled_from(["uniform", "clustered", "hw-clustered"]),
    n_regions=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_bulk_absorption_matches_per_line_oracle(geometry, rate, kind, n_regions, seed):
    n_lines = n_regions * geometry.region // geometry.pcm_line
    failed = _model(kind, rate).build(n_lines, geometry, seed).failed_lines
    bulk, oracle = bulk_and_oracle(geometry, failed, n_regions)
    assert os_absorption_state(bulk) == os_absorption_state(oracle)
    assert bulk.pcm.take_pending_failures() == []


def test_absorbed_pages_leave_the_perfect_pool():
    geometry = Geometry()
    failed = {0, 1, geometry.lines_per_page * 3 + 7}
    bulk, oracle = bulk_and_oracle(geometry, failed, 4)
    assert os_absorption_state(bulk) == os_absorption_state(oracle)
    assert bulk.failure_table.imperfect_pages() == [0, 3]
    assert bulk.pools.imperfect_page_indices() == [0, 3]
    assert bulk.map_failures([bulk.pools.page(3)]) == {3: 1 << 7}
