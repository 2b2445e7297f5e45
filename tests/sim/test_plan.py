"""Tests for declarative experiment plans (repro.sim.plan)."""

import itertools
import json

import pytest

from repro.errors import PlanError
from repro.faults.generator import FailureModel
from repro.sim.machine import RunConfig
from repro.sim.plan import (
    CELL_FIELDS,
    KNOWN_FIGURES,
    PLAN_SCHEMA,
    ExpandedPlan,
    cell_slug,
    dry_run_payload,
    expand,
    load_and_expand,
    load_plan,
    precheck,
    render_dry_run,
)


def doc(**overrides):
    base = {"plan": PLAN_SCHEMA, "name": "test"}
    base.update(overrides)
    return base


class TestPrecheck:
    def test_minimal_single_cell(self):
        plan = expand(doc(defaults={"workload": "luindex"}))
        assert len(plan.cells) == 1
        config = plan.cells[0]
        # Built-in defaults mirror the sweep CLI's flag defaults.
        assert config == RunConfig(workload="luindex", scale=0.35)

    def test_missing_schema(self):
        problems, expanded = precheck({"name": "x"})
        assert expanded is None
        assert any(p.where == "plan" for p in problems)

    def test_unknown_top_level_key(self):
        problems, _ = precheck(doc(defaults={"workload": "luindex"}, axis={}))
        assert any(p.where == "axis" and "unknown key" in p.message for p in problems)

    def test_unknown_workload(self):
        problems, _ = precheck(doc(axes={"workload": ["nosuch"]}))
        assert any("unknown workload" in p.message for p in problems)

    def test_unknown_default_field(self):
        problems, _ = precheck(
            doc(defaults={"workload": "luindex", "heep": 2.0})
        )
        assert any(p.where == "defaults.heep" for p in problems)

    def test_range_violations(self):
        problems, _ = precheck(
            doc(
                defaults={"workload": "luindex", "rate": 1.5, "heap": -1,
                          "line": 100, "scale": 0},
            )
        )
        wheres = {p.where for p in problems}
        assert {"defaults.rate", "defaults.heap", "defaults.line",
                "defaults.scale"} <= wheres

    @pytest.mark.parametrize("heap", [float("inf"), float("nan")])
    def test_non_finite_heap(self, heap):
        # The heap size is int(min_heap * multiplier): refuse it up front.
        problems, expanded = precheck(
            doc(defaults={"workload": "luindex"}, axes={"heap": [heap]})
        )
        assert expanded is None
        assert [p.where for p in problems] == ["axes.heap[0]"]

    def test_yaml_infinite_heap(self, tmp_path):
        path = tmp_path / "plan.yaml"
        path.write_text(
            f"plan: {PLAN_SCHEMA}\nname: t\n"
            "defaults:\n  workload: luindex\n  heap: .inf\n"
        )
        with pytest.raises(PlanError) as info:
            load_and_expand(path)
        assert [p.where for p in info.value.problems] == ["defaults.heap"]

    def test_empty_axis(self):
        problems, expanded = precheck(
            doc(defaults={"workload": "luindex"}, axes={"rate": []})
        )
        assert expanded is None
        assert any("empty axis" in p.message for p in problems)

    def test_placeholder_typo(self):
        problems, _ = precheck(
            doc(
                defaults={"workload": "luindex", "rate": "{rat}"},
                axes={"r": [0.0, 0.1]},
            )
        )
        messages = " ".join(p.message for p in problems)
        assert "{rat}" in messages  # names no axis
        assert "unused axis" in messages  # r is never referenced

    def test_unquoted_placeholder_yaml_artifact(self):
        # YAML parses an unquoted {r} as {"r": None}; the precheck
        # recognises the shape and tells the user to quote it.
        problems, _ = precheck(
            doc(defaults={"workload": "luindex", "rate": {"r": None}},
                axes={"r": [0.1]})
        )
        assert any("quote placeholders" in p.message for p in problems)

    def test_duplicate_cells(self):
        problems, expanded = precheck(
            doc(
                defaults={"workload": "luindex"},
                axes={"rate": [0.1, 0.1]},
            )
        )
        assert expanded is None
        assert any("duplicate of cells[0]" in p.message for p in problems)

    def test_all_problems_reported_not_just_first(self):
        problems, _ = precheck(
            doc(
                defaults={"heap": -1},
                axes={"workload": ["nosuch"], "line": [100]},
            )
        )
        assert len(problems) >= 3

    def test_no_workload_anywhere(self):
        problems, _ = precheck(doc(axes={"rate": [0.0, 0.1]}))
        assert any(p.where == "defaults.workload" for p in problems)

    def test_field_axis_rejects_mapping_values(self):
        problems, _ = precheck(
            doc(axes={"workload": [{"workload": "luindex"}]})
        )
        assert any("scalar values" in p.message for p in problems)

    def test_default_shadowed_by_axis(self):
        problems, _ = precheck(
            doc(defaults={"workload": "luindex", "rate": 0.2},
                axes={"rate": [0.0, 0.1]})
        )
        assert any("both a default and an axis" in p.message for p in problems)

    def test_substituted_values_revalidated(self):
        # 7 is a fine seed but an out-of-range rate; the error must
        # surface after substitution, before any cell runs.
        problems, expanded = precheck(
            doc(defaults={"workload": "luindex", "rate": "{r}"},
                axes={"r": [7]})
        )
        assert expanded is None
        assert any("outside [0, 1]" in p.message for p in problems)

    def test_unknown_figure(self):
        problems, _ = precheck(
            doc(defaults={"workload": "luindex"}, figures=["fig99"])
        )
        assert any(p.where == "figures.fig99" for p in problems)

    def test_figures_only_plan(self):
        plan = expand(doc(defaults={"scale": 0.2}, figures=["headline"]))
        assert plan.cells == []
        assert plan.figures == ["headline"]
        assert plan.scale == pytest.approx(0.2)
        assert plan.seeds == (0,)

    def test_known_figures_matches_cli_registry(self):
        from repro.cli import _FIGURES, _register_figures

        _register_figures()
        assert set(KNOWN_FIGURES) == set(_FIGURES)


class TestExpansion:
    def test_axis_order_is_expansion_order(self):
        plan = expand(
            doc(
                axes={
                    "workload": ["luindex", "antlr"],
                    "rate": [0.0, 0.1],
                    "seed": [0, 1],
                }
            )
        )
        expected = [
            (w, r, s)
            for w in ("luindex", "antlr")
            for r in (0.0, 0.1)
            for s in (0, 1)
        ]
        got = [
            (c.workload, c.failure_model.rate, c.seed) for c in plan.cells
        ]
        assert got == expected

    def test_matches_sweep_cli_grid(self):
        # The exact grid cmd_sweep builds from flags, cell for cell:
        # workloads x rates x heaps x seeds with everything else fixed.
        names, rates, heaps, seeds = ["pmd", "xalan"], [0.0, 0.25], [1.5, 2.0], [0]
        flag_grid = [
            RunConfig(
                workload=name,
                heap_multiplier=heap,
                failure_model=FailureModel(rate=rate, hw_region_pages=0),
                immix_line=256,
                seed=seed,
                scale=0.35,
            )
            for name in names
            for rate in rates
            for heap in heaps
            for seed in seeds
        ]
        plan = expand(
            doc(
                axes={
                    "workload": names,
                    "rate": rates,
                    "heap": heaps,
                    "seed": seeds,
                }
            )
        )
        assert plan.cells == flag_grid

    def test_free_axis_substitution_keeps_type(self):
        plan = expand(
            doc(defaults={"workload": "luindex", "rate": "{r}"},
                axes={"r": [0.0, 0.5]})
        )
        assert [c.failure_model.rate for c in plan.cells] == [0.0, 0.5]
        assert all(isinstance(c.failure_model.rate, float) for c in plan.cells)

    def test_mapping_valued_variant_axis(self):
        plan = expand(
            doc(
                defaults={"workload": "antlr"},
                axes={
                    "variant": [
                        {"rate": 0.0},
                        {"rate": 0.1, "compensate": False},
                        {"rate": 0.1, "clustering": 2},
                    ],
                    "heap": [1.5, 2.0],
                },
            )
        )
        assert len(plan.cells) == 6
        # First variant held across both heaps before moving on.
        assert plan.cells[0].failure_model.rate == 0.0
        assert plan.cells[1].failure_model.rate == 0.0
        assert plan.cells[2].compensate is False
        assert plan.cells[4].failure_model.hw_region_pages == 2
        assert [c.heap_multiplier for c in plan.cells] == [1.5, 2.0] * 3

    def test_seeds_collected_in_order(self):
        plan = expand(
            doc(defaults={"workload": "luindex"}, axes={"seed": [3, 1, 2]})
        )
        assert plan.seeds == (3, 1, 2)


class TestLoading:
    def test_yaml_and_json_equivalent(self, tmp_path):
        payload = doc(defaults={"workload": "luindex"}, axes={"rate": [0.0, 0.1]})
        yml = tmp_path / "p.yaml"
        yml.write_text(
            "plan: repro.plan/1\nname: test\ndefaults:\n  workload: luindex\n"
            "axes:\n  rate: [0.0, 0.1]\n"
        )
        jsn = tmp_path / "p.json"
        jsn.write_text(json.dumps(payload))
        assert load_and_expand(yml).cells == load_and_expand(jsn).cells

    def test_include_merges_defaults(self, tmp_path):
        (tmp_path / "base.yaml").write_text(
            "defaults:\n  line: 64\n  scale: 0.2\n"
        )
        (tmp_path / "plan.yaml").write_text(
            "plan: repro.plan/1\nname: inc\ninclude: [base.yaml]\n"
            "defaults:\n  workload: luindex\n  scale: 0.3\n"
        )
        plan = load_and_expand(tmp_path / "plan.yaml")
        config = plan.cells[0]
        assert config.immix_line == 64  # from the fragment
        assert config.scale == pytest.approx(0.3)  # including file wins

    def test_include_cycle_rejected(self, tmp_path):
        (tmp_path / "a.yaml").write_text("include: [b.yaml]\n")
        (tmp_path / "b.yaml").write_text("include: [a.yaml]\n")
        with pytest.raises(PlanError, match="include cycle"):
            load_plan(tmp_path / "a.yaml")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(PlanError, match="cannot read plan"):
            load_plan(tmp_path / "missing.yaml")

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(PlanError, match="must be a mapping"):
            load_plan(path)


class TestSlugs:
    def test_unique_over_mixed_grid(self):
        # Every sweepable dimension varied at once: any slug collision
        # means traced runs overwrite each other's files (the old bug
        # omitted clustering and scale).
        grid = [
            RunConfig(
                workload=w,
                heap_multiplier=h,
                failure_model=FailureModel(rate=r, hw_region_pages=c),
                seed=s,
                scale=x,
            )
            for w, h, r, c, s, x in itertools.product(
                ["luindex", "pmd"], [1.5, 2.0], [0.0, 0.1], [0, 2], [0, 1],
                [0.2, 0.35],
            )
        ]
        slugs = [cell_slug(config) for config in grid]
        assert len(set(slugs)) == len(grid)

    def test_clustering_and_scale_in_slug(self):
        config = RunConfig(
            workload="pmd",
            failure_model=FailureModel(rate=0.1, hw_region_pages=2),
            scale=0.35,
        )
        slug = cell_slug(config)
        assert "_c2_" in slug
        assert slug.endswith("_x0p35")

    def test_optional_parts(self):
        config = RunConfig(
            workload="pmd",
            failure_model=FailureModel(rate=0.1, cluster_bytes=1024),
            compensate=False,
            arraylets=True,
        )
        slug = cell_slug(config)
        assert "cb1024" in slug
        assert "nocomp" in slug
        assert "al" in slug

    def test_filesystem_safe(self):
        config = RunConfig(
            workload="lusearch-fix",
            heap_multiplier=1.25,
            failure_model=FailureModel(rate=0.05),
            scale=0.35,
        )
        slug = cell_slug(config)
        assert "." not in slug
        assert "/" not in slug


class TestDryRun:
    def plan(self):
        return expand(
            doc(
                defaults={"scale": 0.2},
                axes={"workload": ["luindex"], "rate": [0.0, 0.1]},
            )
        )

    def test_payload_matches_cells_cell_for_cell(self):
        plan = self.plan()
        payload = dry_run_payload(plan)
        assert payload["cells"] == len(plan.cells)
        for entry, config in zip(payload["cell_list"], plan.cells):
            assert entry["slug"] == cell_slug(config)
            assert entry["workload"] == config.workload
            assert entry["rate"] == config.failure_model.rate
            assert entry["seed"] == config.seed
            assert entry["scale"] == config.scale

    def test_cache_estimate(self, tmp_path):
        from repro.sim.cache import ResultCache
        from repro.sim.machine import run_benchmark

        plan = self.plan()
        cache = ResultCache(tmp_path / "cache")
        cache.put(plan.cells[0], run_benchmark(plan.cells[0]))
        stores = cache.stores
        payload = dry_run_payload(plan, cache)
        assert payload["cache"]["estimated_hits"] == 1
        assert payload["cache"]["estimated_misses"] == 1
        assert [e["cached"] for e in payload["cell_list"]] == [True, False]
        # The estimate is a pure probe: no counter movement.
        assert cache.hits == 0 and cache.misses == 0 and cache.stores == stores

    def test_render_contains_slugs(self):
        plan = self.plan()
        text = render_dry_run(plan)
        for slug in plan.slugs():
            assert slug in text

    def test_executed_grid_equals_dry_run(self):
        # The contract the whole feature hangs on: what the dry run
        # lists is exactly what sweep --plan executes.
        plan = self.plan()
        payload = dry_run_payload(plan)
        executed = plan.cells  # cmd_sweep does grid = list(plan.cells)
        assert [e["slug"] for e in payload["cell_list"]] == [
            cell_slug(c) for c in executed
        ]


class TestShippedPlans:
    """Every complete plan under plans/ must precheck clean."""

    def test_all_shipped_plans_expand(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "plans"
        shipped = sorted(root.glob("*.yaml"))
        assert shipped, f"no plans found under {root}"
        for path in shipped:
            plan = load_and_expand(path)
            assert plan.cells or plan.figures, path

    def test_smoke_plan_matches_ci_flag_grid(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "plans"
        plan = load_and_expand(root / "smoke.yaml")
        flag_grid = [
            RunConfig(
                workload=name,
                heap_multiplier=2.0,
                failure_model=FailureModel(rate=rate, hw_region_pages=0),
                immix_line=256,
                seed=0,
                scale=0.2,
            )
            for name in ("luindex", "antlr")
            for rate in (0.0, 0.1)
        ]
        assert plan.cells == flag_grid


class TestPolicyPrecheck:
    """Precheck coverage for the policy seams (wear/pool/placement)."""

    def test_unknown_policy_names_reported(self):
        problems, expanded = precheck(
            doc(
                defaults={"workload": "luindex", "wear_policy": "startgap"},
                axes={"pool_policy": ["paper", "nosuch"]},
            )
        )
        assert expanded is None
        assert any(
            "unknown wear_policy 'startgap'" in p.message for p in problems
        )
        assert any("unknown pool_policy 'nosuch'" in p.message for p in problems)

    def test_placement_collector_conflict_reported_with_cell_index(self):
        problems, expanded = precheck(
            doc(
                defaults={"workload": "luindex", "placement_policy": "hrm"},
                axes={"collector": ["sticky-immix", "marksweep"]},
            )
        )
        assert expanded is None
        conflicts = [p for p in problems if "arraylet path" in p.message]
        assert len(conflicts) == 1
        assert conflicts[0].where == "cells[1].placement_policy"

    def test_compensated_rate_one_reported_with_cell_index(self):
        problems, expanded = precheck(
            doc(
                defaults={"workload": "luindex"},
                axes={"rate": [0.5, 1.0], "compensate": [False, True]},
            )
        )
        assert expanded is None
        assert [(p.where, p.message) for p in problems] == [
            (
                "cells[3].rate",
                "cannot compensate a failure rate of 1.0 (no line works); "
                "set compensate: false",
            )
        ]

    def test_all_policy_problems_in_one_pass(self):
        # A bad name, a conflict, and a bad rate must all surface in a
        # single precheck, not one per run attempt.
        problems, expanded = precheck(
            doc(
                defaults={
                    "workload": "luindex",
                    "rate": 7,
                    "wear_policy": "bogus",
                },
                axes={
                    "collector": ["marksweep"],
                    "placement_policy": ["hrm"],
                },
            )
        )
        assert expanded is None
        assert any("unknown wear_policy" in p.message for p in problems)
        assert any("outside [0, 1]" in p.message for p in problems)

    def test_placeholder_substitution_into_policy_axes(self):
        plan = expand(
            doc(
                defaults={"workload": "luindex", "wear_policy": "{w}"},
                axes={"w": ["none", "wolfram", "softwear"]},
            )
        )
        assert [c.wear_policy for c in plan.cells] == [
            "none",
            "wolfram",
            "softwear",
        ]

    def test_substituted_policy_values_revalidated(self):
        problems, expanded = precheck(
            doc(
                defaults={"workload": "luindex", "pool_policy": "{p}"},
                axes={"p": ["paper", "migrnat"]},
            )
        )
        assert expanded is None
        assert any(
            "unknown pool_policy 'migrnat'" in p.message for p in problems
        )

    def test_mapping_valued_policy_axis(self):
        # The plans/policy_comparison.yaml idiom: one free axis whose
        # mapping values swap a single policy seam per variant.
        plan = expand(
            doc(
                defaults={"workload": "luindex"},
                axes={
                    "policy": [
                        {},
                        {"wear_policy": "wolfram"},
                        {"pool_policy": "migrant"},
                        {"placement_policy": "hrm"},
                    ]
                },
            )
        )
        triples = [
            (c.wear_policy, c.pool_policy, c.placement_policy)
            for c in plan.cells
        ]
        assert triples == [
            ("none", "paper", "paper"),
            ("wolfram", "paper", "paper"),
            ("none", "migrant", "paper"),
            ("none", "paper", "hrm"),
        ]

    def test_policy_slug_parts(self):
        default = RunConfig(workload="luindex")
        assert "wl-" not in cell_slug(default)
        assert "pp-" not in cell_slug(default)
        assert "pl-" not in cell_slug(default)
        varied = RunConfig(
            workload="luindex",
            wear_policy="softwear",
            pool_policy="migrant",
            placement_policy="hrm",
        )
        slug = cell_slug(varied)
        assert slug.endswith("_wl-softwear_pp-migrant_pl-hrm")

    def test_dry_run_payload_carries_policy_fields(self):
        payload = dry_run_payload(
            expand(
                doc(
                    defaults={"workload": "luindex"},
                    axes={"wear_policy": ["none", "wolfram"]},
                )
            )
        )
        assert [c["wear_policy"] for c in payload["cell_list"]] == [
            "none",
            "wolfram",
        ]
        assert all(c["pool_policy"] == "paper" for c in payload["cell_list"])
