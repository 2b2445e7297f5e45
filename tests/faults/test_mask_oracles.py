"""Every failure-map transform equals its set-based reference.

The maps are per-line numpy masks; ``tests/faults/oracles.py`` keeps the
same transforms written over Python int sets. Each property draws a
map (sizes include partial trailing regions, pages and groups) and
requires the mask transform to produce exactly the reference's set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.generator import apply_hardware_clustering, clustered_map, uniform_map
from repro.faults.maps import FailureMap, coarsen
from repro.hardware.geometry import Geometry
from repro.policies.wear import SoftwearWearPolicy, WolframWearPolicy

from . import oracles

G = Geometry()
RATES = st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0])
SEEDS = st.integers(min_value=0, max_value=2**16)


@st.composite
def maps(draw, max_lines=3000):
    """``(n_lines, failed set)``: sparse, dense or empty."""
    n_lines = draw(st.integers(min_value=0, max_value=max_lines))
    if n_lines == 0:
        return 0, set()
    line = st.integers(min_value=0, max_value=n_lines - 1)
    if draw(st.booleans()):
        failed = draw(st.sets(line, max_size=64))
    else:
        rate = draw(st.sampled_from([0.1, 0.5, 0.95]))
        failed = oracles.uniform_reference(n_lines, rate, draw(SEEDS))
    return n_lines, failed


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=5000), RATES, SEEDS)
def test_uniform_map(n_lines, rate, seed):
    fmap = uniform_map(n_lines, rate, seed)
    assert fmap.failed_lines == oracles.uniform_reference(n_lines, rate, seed)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=5000),
    RATES,
    st.sampled_from([64, 128, 512, 4096, 8192]),
    SEEDS,
)
def test_clustered_limit_study(n_lines, rate, cluster_bytes, seed):
    fmap = clustered_map(n_lines, rate, cluster_bytes, G, seed)
    expected = oracles.clustered_reference(n_lines, rate, cluster_bytes, G, seed)
    assert fmap.failed_lines == expected


@settings(max_examples=120)
@given(maps(), st.sampled_from([1, 2, 4]), st.booleans())
def test_hardware_clustering(drawn, region_pages, include_metadata):
    n_lines, failed = drawn
    geometry = Geometry(region_pages=region_pages)
    clustered = apply_hardware_clustering(
        FailureMap(n_lines, failed), geometry, include_metadata
    )
    expected = oracles.hardware_clustering_reference(
        failed, n_lines, geometry, include_metadata
    )
    assert clustered.failed_lines == expected
    assert clustered.n_lines == n_lines


def test_partial_trailing_region_of_each_parity():
    # Region 1 (odd) packs at its end, past the map: its failures drop.
    for region_pages in (1, 2, 4):
        geometry = Geometry(region_pages=region_pages)
        per_region = geometry.lines_per_region
        for n_lines in (per_region // 2, per_region + per_region // 2):
            failed = {0, n_lines - 1}
            for include_metadata in (False, True):
                clustered = apply_hardware_clustering(
                    FailureMap(n_lines, failed), geometry, include_metadata
                )
                assert clustered.failed_lines == oracles.hardware_clustering_reference(
                    failed, n_lines, geometry, include_metadata
                )


@settings(max_examples=80)
@given(maps(), st.integers(min_value=1, max_value=70))
def test_coarsen(drawn, granularity):
    n_lines, failed = drawn
    coarse = coarsen(FailureMap(n_lines, failed), granularity)
    assert coarse.failed_lines == oracles.coarsen_reference(failed, n_lines, granularity)


@settings(max_examples=80)
@given(maps(), st.data())
def test_subset_and_union(drawn, data):
    n_lines, failed = drawn
    fmap = FailureMap(n_lines, failed)
    first = data.draw(st.integers(min_value=0, max_value=n_lines))
    n = data.draw(st.integers(min_value=0, max_value=n_lines - first))
    sub = fmap.subset(first, n)
    assert sub.n_lines == n
    assert sub.failed_lines == oracles.subset_reference(failed, first, n)
    other = data.draw(st.sets(st.integers(0, max(n_lines - 1, 0)), max_size=16))
    other = other if n_lines else set()
    assert fmap.union(FailureMap(n_lines, other)).failed_lines == failed | other


@settings(max_examples=80)
@given(maps(), st.sampled_from([1, 2, 4]))
def test_views(drawn, ratio):
    n_lines, failed = drawn
    fmap = FailureMap(n_lines, failed)
    geometry = Geometry(immix_line=64 * ratio)
    per_page = geometry.lines_per_page
    assert fmap.immix_line_view(geometry) == {line // ratio for line in failed}
    n_pages = n_lines // per_page
    assert fmap.perfect_page_count(geometry) == n_pages - len(
        {line // per_page for line in failed if line // per_page < n_pages}
    )
    for page in range(-(-n_lines // per_page)):
        base = page * per_page
        assert fmap.page_bitmap(page, geometry) == sum(
            1 << (line - base) for line in failed if base <= line < base + per_page
        )
    assert list(fmap) == sorted(failed)
    assert fmap.failed_count == len(failed)
    assert fmap.failed_in_range(10, 100) == {l for l in failed if 10 <= l < 110}


@settings(max_examples=80)
@given(maps(), st.sampled_from([0.0, 0.02, 0.1, 0.5]))
def test_wolfram_transform(drawn, spare_fraction):
    n_lines, failed = drawn
    policy = WolframWearPolicy(spare_fraction=spare_fraction)
    remapped = policy.transform_static_map(FailureMap(n_lines, failed), G, seed=0)
    assert remapped.failed_lines == oracles.wolfram_reference(
        failed, n_lines, G, spare_fraction
    )


@settings(max_examples=80)
@given(maps(), st.sampled_from([1, 2, 8]), SEEDS)
def test_softwear_transform(drawn, region_pages, seed):
    n_lines, failed = drawn
    policy = SoftwearWearPolicy(region_pages=region_pages)
    rotated = policy.transform_static_map(FailureMap(n_lines, failed), G, seed)
    assert rotated.failed_lines == oracles.softwear_reference(
        failed, n_lines, G, policy, seed
    )
