"""Static vs dynamic clustering agreement (round-trip property).

The fault injector's static transform (:func:`cluster_failure_mask`)
claims to produce exactly the logical failure view that the hardware
would reach by routing the same failures, one at a time and in any
order, through its per-region :class:`RedirectionMap`. These tests
replay physical failure sets through the dynamic path and require the
two views to be identical — including the boundary cases (a failure
landing on the boundary slot itself, a fully exhausted region).
"""

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


def replay_dynamic(physical_failures, geometry):
    """Feed physical line failures through the redirection hardware.

    A physical line fails at whatever *logical* offset currently maps to
    it, exactly as a wearing module would observe it; returns the set of
    global logical lines reported failed.
    """
    controller = ClusteringController(geometry)
    per_region = geometry.lines_per_region
    logical_failed = set()
    for line in physical_failures:
        region, physical_offset = divmod(line, per_region)
        rmap = controller.map_for_region(region)
        logical_offset = rmap.logical_to_physical.index(physical_offset)
        reported = controller.record_failure(region * per_region + logical_offset)
        logical_failed.add(reported)
    return logical_failed


class TestRoundTrip:
    @pytest.mark.parametrize("region_pages", [1, 2])
    def test_both_parities_agree(self, region_pages):
        g = Geometry(region_pages=region_pages)
        n = g.lines_per_region
        # Failures scattered over region 0 (even, packs to start) and
        # region 1 (odd, packs to end).
        physical = {3, 11, n - 1, n, n + 7, 2 * n - 1}
        assert replay_dynamic(sorted(physical), g) == clustered_set(physical, g)

    def test_failure_on_boundary_slot(self):
        g = Geometry(region_pages=1)
        # Physical line 0 *is* the even region's boundary slot: the swap
        # is a self-swap and the reported line is the line itself.
        assert replay_dynamic([0], g) == clustered_set({0}, g) == {0}

    def test_exhausted_region_rejects_further_failures(self):
        g = Geometry(region_pages=1)
        n = g.lines_per_region
        replayed = replay_dynamic(range(n), g)
        assert replayed == clustered_set(set(range(n)), g) == set(range(n))
        rmap = ClusteringController(g).map_for_region(0)
        for _ in range(n):
            rmap.record_failure(rmap.working_span()[0])
        with pytest.raises(ValueError):
            rmap.record_failure(0)

    def test_refailing_the_failed_zone_rejected(self):
        rmap = RedirectionMap(8, direction="start")
        rmap.record_failure(5)
        with pytest.raises(ValueError):
            rmap.record_failure(0)  # logical 0 is inside the failed zone

    @given(st.data())
    def test_any_order_matches_static_transform(self, data):
        region_pages = data.draw(st.sampled_from([1, 2]))
        g = Geometry(region_pages=region_pages)
        n = 2 * g.lines_per_region  # two regions, one of each parity
        physical = data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=48)
        )
        order = data.draw(st.permutations(sorted(physical)))
        assert replay_dynamic(order, g) == clustered_set(physical, g)

    @given(st.sets(st.integers(min_value=0, max_value=255), max_size=64))
    def test_dynamic_maps_stay_permutations(self, physical):
        g = Geometry(region_pages=1)
        controller = ClusteringController(g)
        per_region = g.lines_per_region
        for line in sorted(physical):
            region, physical_offset = divmod(line, per_region)
            rmap = controller.map_for_region(region)
            controller.record_failure(
                region * per_region + rmap.logical_to_physical.index(physical_offset)
            )
        for region, rmap in controller._maps.items():
            assert sorted(rmap.logical_to_physical) == list(range(rmap.n_lines))
            assert rmap.direction == region_direction(region)
