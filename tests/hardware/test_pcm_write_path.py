"""The PCM write path against its reference (tests/hardware/oracles.py).

Per-line next-event counters, one threshold draw per line and the bound
translation must leave every observable of a write stream unchanged:
per-write results, the failure sequence the OS drains, the failed sets,
write counts (in first-write order), ECC state, the stuck-bit generator
and the failure buffer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.hardware.geometry import Geometry
from repro.hardware.pcm import EnduranceModel, PcmModule, seeded_gauss
from repro.hardware.wear_leveling import NoWearLeveling, StartGapWearLeveler
from repro.policies.wear import SoftwearWearPolicy, WolframWearPolicy
from tests.hardware.oracles import ReferencePcmModule, module_state, threshold_reference

GEOMETRY = Geometry()
#: Three clustering regions: 384 lines, a multiple of none of the
#: leveling domains below, so every leveler has a partial last domain.
MODULE_BYTES = 3 * GEOMETRY.region
N_LINES = MODULE_BYTES // GEOMETRY.pcm_line

LEVELERS = {
    "none": lambda: NoWearLeveling(),
    "start-gap": lambda: StartGapWearLeveler(domain_lines=100, gap_write_interval=3),
    "wolfram": lambda: WolframWearPolicy().build_leveler(GEOMETRY, 0),
    "softwear": lambda: SoftwearWearPolicy(region_pages=5, rotate_interval=5)
    .build_leveler(GEOMETRY, 0),
}


def build(cls, leveler, clustering, endurance, ecc_entries, seed, static):
    interrupts = []
    module = cls(
        size_bytes=MODULE_BYTES,
        geometry=GEOMETRY,
        endurance=None
        if endurance is None
        else EnduranceModel(
            mean_writes=endurance[0], cv=endurance[1], followup_fraction=0.1, seed=seed
        ),
        ecc_entries_per_line=ecc_entries,
        clustering_enabled=clustering,
        wear_leveler=LEVELERS[leveler](),
        failure_buffer_capacity=4096,
        on_interrupt=interrupts.append,
        seed=seed,
    )
    module.inject_static_failures(static)
    return module, interrupts


def drive(module, stream):
    """Per-write outcomes: the result (or error) and the drained failures."""
    outcomes = []
    for address, size, data in stream:
        try:
            result = module.write(address, size, data=data)
        except AddressError as exc:
            result = ("AddressError", str(exc))
        outcomes.append((result, module.take_pending_failures()))
    return outcomes


# A hot set of lines takes most writes so lines wear out within a short
# stream; the rest scatter over the module, with the odd store that
# spans many lines or runs off the end.
hot_writes = st.tuples(
    st.integers(0, 7).map(lambda line: line * 64), st.sampled_from([1, 8, 64])
)
writes = st.one_of(
    hot_writes,
    hot_writes,
    st.tuples(st.integers(0, MODULE_BYTES - 1), st.integers(1, 300)),
    st.tuples(st.integers(-8, MODULE_BYTES + 8), st.integers(0, 16)),
)


@settings(max_examples=60, deadline=None)
@given(
    leveler=st.sampled_from(sorted(LEVELERS)),
    clustering=st.booleans(),
    endurance=st.one_of(
        st.none(),
        st.tuples(st.integers(1, 12).map(float), st.sampled_from([0.0, 0.35])),
    ),
    ecc_entries=st.integers(0, 3),
    seed=st.integers(-3, 2**33),
    static=st.sets(st.integers(0, N_LINES - 1), max_size=6),
    stream=st.lists(
        st.tuples(writes, st.integers(0, 9)).map(lambda w: (*w[0], w[1])),
        max_size=400,
    ),
)
def test_write_path_matches_reference(
    leveler, clustering, endurance, ecc_entries, seed, static, stream
):
    args = (leveler, clustering, endurance, ecc_entries, seed, static)
    fast, fast_interrupts = build(PcmModule, *args)
    reference, reference_interrupts = build(ReferencePcmModule, *args)
    assert drive(fast, stream) == drive(reference, stream)
    assert module_state(fast, fast_interrupts) == module_state(
        reference, reference_interrupts
    )


@pytest.mark.parametrize("leveler", sorted(LEVELERS))
@pytest.mark.parametrize("clustering", [False, True])
def test_wearing_stream_fails_lines_like_reference(leveler, clustering):
    """A long seeded stream that wears out many lines, every leveler."""
    rng = random.Random(7)
    stream = [
        (rng.randrange(40) * 64 + rng.randrange(8) * 8, rng.choice([8, 8, 8, 200]), i)
        for i in range(6000)
    ]
    args = (leveler, clustering, (20.0, 0.35), 2, 5, {3, 200})
    fast, fast_interrupts = build(PcmModule, *args)
    reference, reference_interrupts = build(ReferencePcmModule, *args)
    outcomes = drive(fast, stream)
    assert outcomes == drive(reference, stream)
    assert sum(len(failures) for _, failures in outcomes) >= 10
    assert module_state(fast, fast_interrupts) == module_state(
        reference, reference_interrupts
    )


def test_lines_past_the_module_are_worn_under_start_gap():
    """Start-gap folds a partial last domain past ``n_lines``; the
    per-line state spans it, as the reference dict did."""
    module = PcmModule(
        size_bytes=MODULE_BYTES,
        endurance=EnduranceModel(mean_writes=1e6),
        wear_leveler=StartGapWearLeveler(domain_lines=100, gap_write_interval=1),
    )
    for _ in range(50):
        module.write((N_LINES - 1) * 64, 8)
    assert max(module.write_counts()) >= N_LINES


def test_without_endurance_no_per_line_state():
    module = PcmModule(size_bytes=MODULE_BYTES)
    assert module._counts is None and module._next_event is None
    assert module.write(0, 4096)
    assert module.write_count_histogram() == []
    assert module.line_write_count(0) == 0


@pytest.mark.parametrize("seed", [0, 1, 2**31, -5])
@pytest.mark.parametrize("cv", [0.0, 0.35])
def test_threshold_draw_is_cpython_gauss(seed, cv):
    """The inlined draw equals ``random.Random(...).gauss`` bit for bit."""
    mean = 40.0
    model = EnduranceModel(mean_writes=mean, cv=cv, seed=seed)
    for line in range(5000):
        key = (seed << 32) ^ line
        expected = random.Random(key).gauss(mean, cv * mean)
        assert seeded_gauss(key, mean, cv * mean) == expected
        assert model.first_failure_threshold(line) == threshold_reference(model, line)
