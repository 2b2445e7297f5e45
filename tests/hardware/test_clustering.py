"""Tests for failure-clustering hardware (redirection maps)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.clustering import (
    ClusteringController,
    RedirectionMap,
    region_direction,
)
from repro.hardware.geometry import Geometry

from tests.hardware.oracles import clustered_set


class TestRedirectionMap:
    def test_starts_as_identity(self):
        rmap = RedirectionMap(8)
        assert [rmap.translate(i) for i in range(8)] == list(range(8))
        assert not rmap.installed
        assert rmap.failed_count == 0

    def test_single_failure_clusters_to_start(self):
        rmap = RedirectionMap(8, direction="start")
        reported = rmap.record_failure(5)
        assert reported == 0
        assert rmap.installed
        assert list(rmap.failed_logical_offsets()) == [0]
        # The broken physical line 5 now backs logical offset 0.
        assert rmap.translate(0) == 5
        assert rmap.translate(5) == 0

    def test_single_failure_clusters_to_end(self):
        rmap = RedirectionMap(8, direction="end")
        reported = rmap.record_failure(2)
        assert reported == 7
        assert list(rmap.failed_logical_offsets()) == [7]
        assert rmap.translate(7) == 2

    def test_failed_zone_grows_contiguously(self):
        rmap = RedirectionMap(8, direction="start")
        for offset in (6, 3, 5):
            rmap.record_failure(offset)
        assert list(rmap.failed_logical_offsets()) == [0, 1, 2]
        assert list(rmap.working_span()) == [3, 4, 5, 6, 7]

    def test_failure_at_boundary_slot_itself(self):
        rmap = RedirectionMap(4, direction="start")
        assert rmap.record_failure(0) == 0
        assert rmap.translate(0) == 0

    def test_cannot_refail_failed_zone(self):
        rmap = RedirectionMap(4, direction="start")
        rmap.record_failure(2)
        with pytest.raises(ValueError):
            rmap.record_failure(0)

    def test_all_lines_can_fail(self):
        rmap = RedirectionMap(4, direction="end")
        for _ in range(4):
            rmap.record_failure(rmap.working_span()[0])
        assert rmap.failed_count == 4
        with pytest.raises(ValueError):
            rmap.record_failure(0)

    @given(st.data())
    def test_mapping_stays_a_permutation(self, data):
        n = 16
        rmap = RedirectionMap(n, direction=data.draw(st.sampled_from(["start", "end"])))
        failures = data.draw(st.integers(min_value=0, max_value=n))
        for _ in range(failures):
            span = list(rmap.working_span())
            if not span:
                break
            rmap.record_failure(data.draw(st.sampled_from(span)))
        assert sorted(rmap.logical_to_physical) == list(range(n))

    def test_validation(self):
        with pytest.raises(ValueError):
            RedirectionMap(1)
        with pytest.raises(ValueError):
            RedirectionMap(8, direction="sideways")


class TestClusteringController:
    def test_parity_directions(self):
        assert region_direction(0) == "start"
        assert region_direction(1) == "end"
        assert region_direction(2) == "start"

    def test_translate_identity_without_failures(self):
        controller = ClusteringController(Geometry())
        assert controller.translate_line(12345) == 12345
        assert controller.installed_map_count() == 0

    def test_failure_reported_at_region_edge(self):
        g = Geometry()
        controller = ClusteringController(g)
        # A failure in region 0 (even, clusters to start).
        line = 50
        reported = controller.record_failure(line)
        assert reported == 0
        # In region 1 (odd, clusters to end).
        line = g.lines_per_region + 10
        reported = controller.record_failure(line)
        assert reported == 2 * g.lines_per_region - 1

    def test_translate_follows_swap(self):
        g = Geometry()
        controller = ClusteringController(g)
        controller.record_failure(50)
        # Logical line 0 is now backed by broken physical line 50.
        assert controller.translate_line(0) == 50
        assert controller.translate_line(50) == 0
        assert controller.installed_map_count() == 1


class TestClusterFailureMap:
    def test_counts_preserved_per_region(self):
        g = Geometry(region_pages=1)
        failed = {3, 17, 40, 64 + 5, 64 + 60}
        logical = clustered_set(failed, g)
        per_region = g.lines_per_region
        region0 = {line for line in logical if line < per_region}
        region1 = {line for line in logical if line >= per_region}
        assert len(region0) == 3 and len(region1) == 2

    def test_even_region_packs_at_start(self):
        g = Geometry(region_pages=1)
        logical = clustered_set({10, 20, 30}, g)
        assert logical == {0, 1, 2}

    def test_odd_region_packs_at_end(self):
        g = Geometry(region_pages=1)
        n = g.lines_per_region
        logical = clustered_set({n + 10, n + 20}, g)
        assert logical == {2 * n - 2, 2 * n - 1}

    def test_two_page_region_keeps_second_page_perfect(self):
        g = Geometry(region_pages=2)
        # 30 failures spread over both pages of region 0 (128 lines).
        failed = set(range(0, 120, 4))
        logical = clustered_set(failed, g)
        assert logical == set(range(30))
        # Page 1 of the region (lines 64..127) is now logically perfect.
        assert all(line < g.lines_per_page for line in logical)

    def test_metadata_lines_charged_when_requested(self):
        g = Geometry(region_pages=2)
        logical = clustered_set({5}, g, include_metadata=True)
        # 1 failure + 2 redirection-map lines.
        assert logical == {0, 1, 2}

    def test_metadata_never_exceeds_region(self):
        g = Geometry(region_pages=1)
        n = g.lines_per_region
        logical = clustered_set(set(range(n)), g, include_metadata=True)
        assert logical == set(range(n))

    def test_empty_input(self):
        assert clustered_set(set(), Geometry()) == set()

    @given(st.sets(st.integers(min_value=0, max_value=1023), max_size=200))
    def test_total_count_preserved_without_metadata(self, failed):
        g = Geometry(region_pages=1)
        logical = clustered_set(failed, g)
        # Counts per region match, hence totals match (regions can't overflow
        # because inputs are within existing regions).
        assert len(logical) == len(failed)
