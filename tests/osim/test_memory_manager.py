"""Tests for the OS memory manager and dynamic-failure path."""

import pytest

from repro.errors import ProtocolError
from repro.hardware.geometry import Geometry
from repro.hardware.pcm import EnduranceModel, PcmModule
from repro.osim.memory_manager import OsMemoryManager

G = Geometry()


def make_os(pcm_regions=4, dram_pages=8, **pcm_kwargs):
    pcm = PcmModule(size_bytes=pcm_regions * G.region, geometry=G, **pcm_kwargs)
    return OsMemoryManager(pcm, dram_pages=dram_pages, geometry=G), pcm


class TestStaticAbsorption:
    def test_aged_module_populates_table_and_pools(self):
        pcm = PcmModule(size_bytes=4 * G.region, geometry=G)
        pcm.inject_static_failures([0, 1, G.lines_per_page * 3 + 2])
        osmm = OsMemoryManager(pcm, geometry=G)
        assert osmm.failure_table.failed_offsets(0) == {0, 1}
        assert osmm.failure_table.failed_offsets(3) == {2}
        assert osmm.pools.free_imperfect == 2
        assert osmm.imperfect_fraction() == pytest.approx(2 / 8)


class TestSyscalls:
    def test_mmap_returns_perfect_pages(self):
        osmm, _ = make_os()
        pages = osmm.mmap(3)
        assert len(pages) == 3
        assert all(page.is_perfect for page in pages)

    def test_mmap_imperfect_requires_handler(self):
        osmm, _ = make_os()
        with pytest.raises(ProtocolError):
            osmm.mmap_imperfect(1)

    def test_mmap_imperfect_returns_requested_count(self):
        osmm, pcm = make_os()
        pcm.inject_static_failures([0])
        osmm2 = OsMemoryManager(pcm, geometry=G)
        osmm2.register_failure_handler(lambda events: None)
        pages = osmm2.mmap_imperfect(4)
        assert len(pages) == 4
        # The imperfect page is handed out first (less precious).
        assert not pages[0].is_perfect

    def test_map_failures_reports_offsets(self):
        pcm = PcmModule(size_bytes=4 * G.region, geometry=G)
        pcm.inject_static_failures([5, 6])
        osmm = OsMemoryManager(pcm, geometry=G)
        osmm.register_failure_handler(lambda events: None)
        pages = osmm.mmap_imperfect(2)
        failures = osmm.map_failures(pages)
        assert failures[pages[0].index] == (1 << 5) | (1 << 6)
        assert failures[pages[1].index] == 0

    def test_munmap_releases(self):
        osmm, _ = make_os()
        pages = osmm.mmap(2)
        before = osmm.pools.free_perfect
        osmm.munmap(pages)
        assert osmm.pools.free_perfect == before + 2


class TestDynamicFailures:
    def make_wearing_os(self):
        pcm = PcmModule(
            size_bytes=4 * G.region,
            geometry=G,
            endurance=EnduranceModel(mean_writes=3, cv=0.0),
            ecc_entries_per_line=0,
        )
        return OsMemoryManager(pcm, dram_pages=8, geometry=G), pcm

    def test_runtime_page_failure_upcalls_handler(self):
        osmm, pcm = self.make_wearing_os()
        received = []
        osmm.register_failure_handler(received.extend)
        pages = osmm.mmap_imperfect(1)
        address = pages[0].index * G.page
        for _ in range(3):
            pcm.write(address, 1, data="payload")
        assert len(received) == 1
        event = received[0]
        assert event.page_index == pages[0].index
        assert event.line_offset == 0
        assert event.data == "payload"
        assert osmm.upcalls == 1
        # Buffer entry cleared after handling.
        assert len(pcm.failure_buffer) == 0

    def test_failure_updates_table_and_page(self):
        osmm, pcm = self.make_wearing_os()
        osmm.register_failure_handler(lambda events: None)
        pages = osmm.mmap_imperfect(1)
        for _ in range(3):
            pcm.write(pages[0].index * G.page, 1)
        assert not pages[0].is_perfect
        assert osmm.failure_table.failed_offsets(pages[0].index) == {0}

    def test_unaware_process_page_relocated(self):
        osmm, pcm = self.make_wearing_os()
        pages = osmm.mmap(1, owner="native-app")
        for _ in range(3):
            pcm.write(pages[0].index * G.page, 1)
        assert osmm.relocated_pages == 1
        assert osmm.upcalls == 0

    def test_failure_on_unowned_page_also_relocates(self):
        osmm, pcm = self.make_wearing_os()
        # Write directly to unmapped memory (e.g. OS-owned scratch).
        for _ in range(3):
            pcm.write(2 * G.region, 1)
        assert osmm.relocated_pages == 1
