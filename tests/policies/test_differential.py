"""Differential oracle: default policies == pre-refactor behavior.

The policy seams must be invisible at their default spellings. The
oracle is a set of golden ``RunResult`` dumps generated at the commit
*before* the policy refactor (``tests/golden/*.json``); every test here
asserts today's simulator reproduces them byte-for-byte:

* through both ``run_grid`` routes (in-process, and the persistent
  worker executor with and without retries), one golden at a time and
  as a whole grid,
* and — hypothesis-driven — at the serialization layer, where a config
  spelling the defaults explicitly must be indistinguishable from one
  that never mentions a policy (same dict, same cache key, no policy
  keys in artifacts).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.generator import FailureModel
from repro.sim.cache import (
    cache_key,
    config_from_dict,
    config_to_dict,
    result_to_dict,
)
from repro.sim.ftexec import RetryPolicy
from repro.sim.machine import RunConfig, run_benchmark
from repro.sim.parallel import run_grid

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))
assert GOLDEN_FILES, "pre-refactor golden RunResult dumps are missing"


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True, indent=1)


def golden_case(path):
    data = json.loads(path.read_text())
    return config_from_dict(data["config"]), json.dumps(
        data, sort_keys=True, indent=1
    )


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_default_policies_match_pre_refactor_golden(path):
    config, expected = golden_case(path)
    assert config.wear_policy == "none"
    assert config.pool_policy == "paper"
    assert config.placement_policy == "paper"
    assert canonical(run_benchmark(config)) == expected


@pytest.mark.parametrize(
    "executor",
    [
        {"jobs": 1},
        {"jobs": 2},
        {"jobs": 2, "retry": RetryPolicy()},
    ],
    ids=["inline", "workers", "workers-retry"],
)
def test_golden_reproduced_by_every_executor(executor):
    # One golden suffices per executor: kernel equivalence across the
    # full input space is property-tested in tests/heap. This pins the
    # way each route hands the RunResult back: in-process, or pickled
    # over a worker's pipe under a single-attempt or retry policy.
    config, expected = golden_case(GOLDEN_FILES[0])
    results, _stats = run_grid([config], **executor)
    assert len(results) == 1
    assert canonical(results[0]) == expected


@pytest.mark.parametrize(
    "executor",
    [{"jobs": 2}, {"jobs": 2, "retry": RetryPolicy()}],
    ids=["workers", "workers-retry"],
)
def test_golden_grid_reproduced_in_input_order(executor):
    # Two workers finish the goldens out of order; each result must
    # still land at its config's index, byte for byte.
    cases = [golden_case(path) for path in GOLDEN_FILES]
    results, _stats = run_grid([config for config, _ in cases], **executor)
    assert [canonical(result) for result in results] == [
        expected for _, expected in cases
    ]


def default_configs():
    return st.builds(
        RunConfig,
        workload=st.sampled_from(["luindex", "antlr", "fop", "pmd"]),
        heap_multiplier=st.floats(min_value=1.25, max_value=6.0, allow_nan=False),
        collector=st.sampled_from(
            ["immix", "sticky-immix", "marksweep", "sticky-marksweep"]
        ),
        immix_line=st.sampled_from([64, 128, 256]),
        seed=st.integers(min_value=0, max_value=2**31),
        scale=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        compensate=st.booleans(),
        arraylets=st.booleans(),
        failure_model=st.builds(
            FailureModel,
            rate=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            hw_region_pages=st.sampled_from([0, 1, 2]),
        ),
    )


@given(config=default_configs())
@settings(max_examples=50, deadline=None)
def test_explicit_default_spelling_is_invisible(config):
    """`wear_policy="none"` etc. must serialize exactly like silence."""
    from dataclasses import replace

    explicit = replace(
        config, wear_policy="none", pool_policy="paper", placement_policy="paper"
    )
    data = config_to_dict(config)
    assert "wear_policy" not in data
    assert "pool_policy" not in data
    assert "placement_policy" not in data
    assert config_to_dict(explicit) == data
    assert cache_key(explicit) == cache_key(config)
    assert config_from_dict(data) == config


@given(config=default_configs())
@settings(max_examples=25, deadline=None)
def test_non_default_policies_roll_the_cache_key(config):
    """The seams must be *visible* the moment they deviate."""
    from dataclasses import replace

    variant = replace(config, wear_policy="wolfram")
    assert cache_key(variant) != cache_key(config)
    assert config_to_dict(variant)["wear_policy"] == "wolfram"
    assert config_from_dict(config_to_dict(variant)) == variant
