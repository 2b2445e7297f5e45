"""Declarative experiment plans: studies as data, not code.

Every study in this reproduction is a (workload x configuration x seed)
grid. This module gives those grids a declarative file format — YAML or
JSON — with Cartesian sweep expansion, so new studies are plan files
instead of hand-enumerated loops in :mod:`repro.sim.experiments` or
walls of CLI flags. The shipped plans live under ``plans/``.

A plan document::

    plan: repro.plan/1
    name: failure-sweep
    description: figure-7-style failure-rate sweep
    include: [include/defaults.yaml]    # optional, merged first
    defaults:                           # the cell template
      scale: 0.35
      rate: "{r}"                       # {placeholder} -> axis value
    axes:                               # Cartesian product, in order
      workload: [pmd, xalan]
      line: [64, 256]
      r: [0.0, 0.1, 0.5]
    figures: [fig7]                     # optional, for `figures --plan`

Expansion rules
---------------
* ``axes`` maps axis names to non-empty value lists. The Cartesian
  product is taken **in declaration order, first axis outermost**.
  The ``sweep`` CLI's grid flags compile to a document with axes
  ``workload x rate x heap x seed`` in that order, so a plan spelling
  the same grid produces the same cell order and a bit-identical
  ``BENCH_sweep.json`` results section.
* An axis named after a cell field (``workload``, ``rate``, ``heap``,
  ``line``, ``collector``, ``clustering``, ``cluster_bytes``,
  ``compensate``, ``arraylets``, ``seed``, ``scale``, ``wear_policy``,
  ``pool_policy``, ``placement_policy``) sets that field directly in
  every cell.
* Any other axis is a *free placeholder* and must be referenced from
  ``defaults`` as ``"{name}"`` (exact match substitutes the typed
  value; embedded in a longer string it substitutes as text). A free
  axis nothing references, or a placeholder naming no axis, is a
  precheck error — typos die before any cell runs.
* An axis value may also be a mapping of cell fields, which merges
  into the cell — this expresses "variants" that change several
  fields together (see ``plans/heap_size_study.yaml``).
* ``defaults`` seeds every cell; built-in defaults (matching the
  ``sweep`` subcommand) fill whatever the plan leaves unset.
* ``include`` merges other documents first (paths relative to the
  including file, cycles rejected): scalar keys are replaced,
  ``defaults``/``axes`` merge key-wise, with the including document
  winning. Included fragments may omit ``plan``/``name``.

The precheck (:func:`precheck`) validates the whole document — unknown
keys, unknown workloads/collectors/figures, type and range violations,
empty axes, placeholder typos, duplicate cells — and reports **every**
problem, not just the first. :func:`expand` compiles a clean document
into :class:`ExpandedPlan`, whose ``cells`` are ordinary
:class:`~repro.sim.machine.RunConfig` objects ready for
:func:`~repro.sim.parallel.run_grid`; execution therefore reuses the
cache/retry/quarantine machinery unchanged.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import PlanError
from ..faults.generator import FailureModel
from ..policies import PLACEMENT_POLICIES, POOL_POLICIES, WEAR_POLICIES
from ..workloads.dacapo import BY_NAME
from .cache import ResultCache
from .machine import RunConfig

#: Plan-format schema identifier (the required ``plan:`` key).
PLAN_SCHEMA = "repro.plan/1"

#: Keys allowed at the top level of a plan document.
TOP_LEVEL_KEYS = ("plan", "name", "description", "include", "defaults", "axes", "figures")

#: Collectors a cell may select (mirrors the ``bench`` CLI choices).
COLLECTORS = ("immix", "sticky-immix", "marksweep", "sticky-marksweep")

#: Figure ids `figures --plan` may name (mirrors the CLI registry;
#: ``tests/sim/test_plan.py`` asserts the two stay in sync).
KNOWN_FIGURES = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "pauses", "headline", "policies",
)

#: Maximum include nesting (cycles are detected separately; this bounds
#: honest-but-deep chains).
MAX_INCLUDE_DEPTH = 8

_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_-]*)\}")


# ----------------------------------------------------------------------
# Cell fields: what a plan may set and how it compiles to RunConfig
# ----------------------------------------------------------------------
def _is_bool(value: Any) -> bool:
    return isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_workload(value: Any) -> Optional[str]:
    if not isinstance(value, str):
        return f"expected a workload name, got {value!r}"
    if value not in BY_NAME:
        return f"unknown workload {value!r}; available: {', '.join(sorted(BY_NAME))}"
    return None


def _check_rate(value: Any) -> Optional[str]:
    if not _is_number(value):
        return f"expected a number in [0, 1], got {value!r}"
    if not 0.0 <= value <= 1.0:
        return f"failure rate {value!r} outside [0, 1]"
    return None


def compensation_problem(rate: Any, compensate: Any) -> Optional[str]:
    """A compensated cell maps heap / (1 - rate) bytes: none exists at
    rate 1. Checked across fields, after each field's own checker."""
    if compensate is True and _is_number(rate) and rate == 1.0:
        return "cannot compensate a failure rate of 1.0 (no line works)"
    return None


def _check_heap(value: Any) -> Optional[str]:
    # Finite too: the heap size is int(min_heap * multiplier).
    if not _is_number(value) or not 0 < value < math.inf:
        return f"expected a positive heap multiplier, got {value!r}"
    return None


def _check_line(value: Any) -> Optional[str]:
    if not _is_int(value) or value not in (64, 128, 256):
        return f"expected an Immix line size of 64, 128, or 256, got {value!r}"
    return None


def _check_collector(value: Any) -> Optional[str]:
    if value not in COLLECTORS:
        return f"unknown collector {value!r}; available: {', '.join(COLLECTORS)}"
    return None


def _check_clustering(value: Any) -> Optional[str]:
    if not _is_int(value) or value < 0:
        return f"expected a page count >= 0, got {value!r}"
    return None


def _check_cluster_bytes(value: Any) -> Optional[str]:
    if value is None:
        return None
    if not _is_int(value) or value <= 0:
        return f"expected a positive byte granularity (or null), got {value!r}"
    return None


def _check_bool(value: Any) -> Optional[str]:
    if not _is_bool(value):
        return f"expected true or false, got {value!r}"
    return None


def _check_seed(value: Any) -> Optional[str]:
    if not _is_int(value) or value < 0:
        return f"expected a seed >= 0, got {value!r}"
    return None


def _check_scale(value: Any) -> Optional[str]:
    if not _is_number(value) or not 0 < value <= 1.0:
        return f"expected a scale in (0, 1], got {value!r}"
    return None


def _policy_checker(registry: Dict[str, Any], axis: str):
    def check(value: Any) -> Optional[str]:
        if not isinstance(value, str) or value not in registry:
            return (
                f"unknown {axis} {value!r}; "
                f"available: {', '.join(sorted(registry))}"
            )
        return None

    return check


_check_wear_policy = _policy_checker(WEAR_POLICIES, "wear_policy")
_check_pool_policy = _policy_checker(POOL_POLICIES, "pool_policy")
_check_placement_policy = _policy_checker(PLACEMENT_POLICIES, "placement_policy")


#: field name -> (validator, built-in default). The ``sweep`` and
#: ``figures`` subcommands take their flag defaults from here, so a plan
#: spelling a flag grid is cell-for-cell identical to it.
CELL_FIELDS: Dict[str, Tuple[Any, Any]] = {
    "workload": (_check_workload, None),  # required: no usable default
    "rate": (_check_rate, 0.0),
    "heap": (_check_heap, 2.0),
    "line": (_check_line, 256),
    "collector": (_check_collector, "sticky-immix"),
    "clustering": (_check_clustering, 0),
    "cluster_bytes": (_check_cluster_bytes, None),
    "compensate": (_check_bool, True),
    "arraylets": (_check_bool, False),
    "seed": (_check_seed, 0),
    "scale": (_check_scale, 0.35),
    "wear_policy": (_check_wear_policy, "none"),
    "pool_policy": (_check_pool_policy, "paper"),
    "placement_policy": (_check_placement_policy, "paper"),
}


def cell_to_config(cell: Dict[str, Any]) -> RunConfig:
    """Compile one fully-populated cell mapping into a RunConfig."""
    return RunConfig(
        workload=cell["workload"],
        heap_multiplier=float(cell["heap"]),
        collector=cell["collector"],
        failure_model=FailureModel(
            rate=float(cell["rate"]),
            cluster_bytes=cell["cluster_bytes"],
            hw_region_pages=cell["clustering"],
        ),
        immix_line=cell["line"],
        compensate=cell["compensate"],
        arraylets=cell["arraylets"],
        seed=cell["seed"],
        scale=float(cell["scale"]),
        wear_policy=cell["wear_policy"],
        pool_policy=cell["pool_policy"],
        placement_policy=cell["placement_policy"],
    )


def cell_slug(config: RunConfig) -> str:
    """Filesystem-safe cell identifier, unique across every sweepable
    dimension.

    Earlier revisions omitted clustering and scale, so traced cells
    differing only there silently overwrote each other's files; every
    RunConfig field a grid can vary now appears (conditionally for the
    off-by-default ones).
    """

    def num(value: float) -> str:
        return f"{value:g}".replace(".", "p").replace("-", "m")

    parts = [
        config.workload,
        f"r{num(config.failure_model.rate)}",
        f"h{num(config.heap_multiplier)}",
        f"L{config.immix_line}",
        f"c{config.failure_model.hw_region_pages}",
        config.collector,
        f"s{config.seed}",
        f"x{num(config.scale)}",
    ]
    if config.failure_model.cluster_bytes:
        parts.append(f"cb{config.failure_model.cluster_bytes}")
    if not config.compensate:
        parts.append("nocomp")
    if config.arraylets:
        parts.append("al")
    # Policy parts are conditional like the other off-by-default
    # dimensions: default-policy slugs stay byte-identical to the
    # pre-policy spellings (resume/trace paths key files on them).
    if config.wear_policy != "none":
        parts.append(f"wl-{config.wear_policy}")
    if config.pool_policy != "paper":
        parts.append(f"pp-{config.pool_policy}")
    if config.placement_policy != "paper":
        parts.append(f"pl-{config.placement_policy}")
    return "_".join(parts)


# ----------------------------------------------------------------------
# Problems and results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanProblem:
    """One precheck finding, located within the document."""

    where: str  #: dotted location, e.g. ``axes.rate[2]`` or ``defaults.heap``
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


@dataclass
class ExpandedPlan:
    """A compiled plan: the grid plus everything the CLI renders."""

    name: str
    description: str
    source: str
    cells: List[RunConfig]
    #: Axis name -> value count, in declaration order (for rendering).
    axes: Dict[str, int] = field(default_factory=dict)
    figures: List[str] = field(default_factory=list)
    #: Convenience knobs for `figures --plan`.
    scale: float = 0.35
    seeds: Tuple[int, ...] = (0,)

    def slugs(self) -> List[str]:
        return [cell_slug(config) for config in self.cells]

    def cached_flags(self, cache: Optional[ResultCache]) -> List[bool]:
        """Which cells a dry run estimates as cache hits (all False
        without a cache)."""
        if cache is None:
            return [False] * len(self.cells)
        return [cache.contains(config) for config in self.cells]


# ----------------------------------------------------------------------
# Loading (JSON / YAML, includes)
# ----------------------------------------------------------------------
def _parse_file(path: Path) -> Any:
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        return json.loads(text)
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - PyYAML ships in CI
        raise PlanError(
            [PlanProblem(str(path), "PyYAML is unavailable; use a .json plan")]
        ) from exc
    return yaml.safe_load(text)


def load_plan(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a plan file and resolve its ``include`` chain.

    Returns the merged raw document (a plain dict); includes merge
    first so the including document wins. Raises :class:`PlanError`
    for unreadable/unparsable files, include cycles, or documents that
    are not mappings — everything else is left to :func:`precheck`.
    """
    return _load_merged(Path(path), stack=())


def _load_merged(path: Path, stack: Tuple[Path, ...]) -> Dict[str, Any]:
    resolved = path.resolve()
    if resolved in stack:
        chain = " -> ".join(p.name for p in stack + (resolved,))
        raise PlanError([PlanProblem(str(path), f"include cycle: {chain}")])
    if len(stack) >= MAX_INCLUDE_DEPTH:
        raise PlanError(
            [PlanProblem(str(path), f"includes nested deeper than {MAX_INCLUDE_DEPTH}")]
        )
    try:
        doc = _parse_file(resolved)
    except OSError as exc:
        raise PlanError([PlanProblem(str(path), f"cannot read plan: {exc}")]) from exc
    except ValueError as exc:
        raise PlanError([PlanProblem(str(path), f"cannot parse plan: {exc}")]) from exc
    if not isinstance(doc, dict):
        raise PlanError(
            [PlanProblem(str(path), f"plan must be a mapping, got {type(doc).__name__}")]
        )
    includes = doc.get("include", [])
    if isinstance(includes, str):
        includes = [includes]
    if not isinstance(includes, list) or not all(isinstance(i, str) for i in includes):
        raise PlanError(
            [PlanProblem(f"{path}:include", "expected a path or list of paths")]
        )
    merged: Dict[str, Any] = {}
    for item in includes:
        fragment = _load_merged(resolved.parent / item, stack + (resolved,))
        merged = _merge_documents(merged, fragment)
    doc = {key: value for key, value in doc.items() if key != "include"}
    return _merge_documents(merged, doc)


def _merge_documents(base: Dict[str, Any], overlay: Dict[str, Any]) -> Dict[str, Any]:
    """Overlay wins; ``defaults``/``axes`` merge key-wise."""
    merged = dict(base)
    for key, value in overlay.items():
        if key in ("defaults", "axes") and isinstance(value, dict) and isinstance(
            merged.get(key), dict
        ):
            inner = dict(merged[key])
            inner.update(value)
            merged[key] = inner
        else:
            merged[key] = value
    return merged


# ----------------------------------------------------------------------
# Precheck + expansion
# ----------------------------------------------------------------------
def _looks_like_unquoted_placeholder(value: Any) -> Optional[str]:
    """YAML parses an unquoted ``{rate}`` as ``{"rate": None}``."""
    if isinstance(value, dict) and len(value) == 1:
        key, inner = next(iter(value.items()))
        if inner is None and isinstance(key, str):
            return key
    return None


def _placeholders_in(value: Any) -> List[str]:
    if isinstance(value, str):
        return _PLACEHOLDER.findall(value)
    return []


def _substitute(value: Any, bindings: Dict[str, Any]) -> Any:
    """Replace ``{axis}`` placeholders; an exact match keeps the type."""
    if not isinstance(value, str):
        return value
    exact = _PLACEHOLDER.fullmatch(value)
    if exact and exact.group(1) in bindings:
        return bindings[exact.group(1)]
    return _PLACEHOLDER.sub(
        lambda m: str(bindings.get(m.group(1), m.group(0))), value
    )


def _validate_field(name: str, value: Any, where: str, problems: List[PlanProblem]) -> None:
    unquoted = _looks_like_unquoted_placeholder(value)
    if unquoted is not None:
        problems.append(
            PlanProblem(
                where,
                f"{{{unquoted}}} parsed as a mapping — quote placeholders "
                f'in YAML: {name}: "{{{unquoted}}}"',
            )
        )
        return
    error = CELL_FIELDS[name][0](value)
    if error:
        problems.append(PlanProblem(where, error))


def precheck(
    doc: Dict[str, Any], source: str = "<plan>"
) -> Tuple[List[PlanProblem], Optional[ExpandedPlan]]:
    """Validate a raw plan document and, if clean, expand it.

    Returns ``(problems, expanded)``: every problem found (never just
    the first), and the expanded plan when there are none. Nothing is
    executed — this is the gate that runs before any cell does.
    """
    problems: List[PlanProblem] = []

    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            problems.append(
                PlanProblem(
                    str(key),
                    f"unknown key; expected one of: {', '.join(TOP_LEVEL_KEYS)}",
                )
            )
    schema = doc.get("plan")
    if schema != PLAN_SCHEMA:
        problems.append(
            PlanProblem(
                "plan",
                f"missing or unsupported schema {schema!r}; "
                f"expected {PLAN_SCHEMA!r}",
            )
        )
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.append(PlanProblem("name", "plans need a non-empty string name"))
        name = "<unnamed>"
    description = doc.get("description", "")
    if not isinstance(description, str):
        problems.append(PlanProblem("description", "expected a string"))
        description = ""

    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        problems.append(PlanProblem("defaults", "expected a mapping"))
        defaults = {}
    axes = doc.get("axes", {})
    if not isinstance(axes, dict):
        problems.append(PlanProblem("axes", "expected a mapping of axis -> values"))
        axes = {}

    figures = doc.get("figures", [])
    if not isinstance(figures, list) or not all(isinstance(f, str) for f in figures):
        problems.append(PlanProblem("figures", "expected a list of figure names"))
        figures = []
    for fig in figures:
        if fig not in KNOWN_FIGURES:
            problems.append(
                PlanProblem(
                    f"figures.{fig}",
                    f"unknown figure; available: {', '.join(KNOWN_FIGURES)}",
                )
            )

    # --- axes: shape, emptiness, per-value validation -----------------
    axis_names: List[str] = []
    field_axes: List[str] = []
    free_axes: List[str] = []
    for axis, values in axes.items():
        where = f"axes.{axis}"
        if not isinstance(axis, str) or not axis:
            problems.append(PlanProblem("axes", f"axis name {axis!r} must be a string"))
            continue
        if not isinstance(values, list):
            problems.append(PlanProblem(where, "expected a list of values"))
            continue
        if not values:
            problems.append(
                PlanProblem(where, "empty axis: the Cartesian product has zero cells")
            )
            continue
        axis_names.append(axis)
        if axis in CELL_FIELDS:
            field_axes.append(axis)
            for index, value in enumerate(values):
                if isinstance(value, dict) and _looks_like_unquoted_placeholder(value) is None:
                    problems.append(
                        PlanProblem(
                            f"{where}[{index}]",
                            "a field-named axis takes scalar values; use a "
                            "free axis for mapping-valued variants",
                        )
                    )
                else:
                    _validate_field(axis, value, f"{where}[{index}]", problems)
        else:
            free_axes.append(axis)
            for index, value in enumerate(values):
                if isinstance(value, dict):
                    for fname, fvalue in value.items():
                        if fname not in CELL_FIELDS:
                            problems.append(
                                PlanProblem(
                                    f"{where}[{index}].{fname}",
                                    f"unknown cell field; expected one of: "
                                    f"{', '.join(CELL_FIELDS)}",
                                )
                            )
                        else:
                            _validate_field(
                                fname, fvalue, f"{where}[{index}].{fname}", problems
                            )

    # --- defaults: keys, placeholder references -----------------------
    referenced: set = set()
    for fname, fvalue in defaults.items():
        where = f"defaults.{fname}"
        if fname not in CELL_FIELDS:
            problems.append(
                PlanProblem(
                    where,
                    f"unknown cell field; expected one of: {', '.join(CELL_FIELDS)}",
                )
            )
            continue
        unquoted = _looks_like_unquoted_placeholder(fvalue)
        if unquoted is not None:
            # Report as a placeholder-quoting problem (YAML artifact),
            # but still track the reference for unused-axis analysis.
            referenced.add(unquoted)
            _validate_field(fname, fvalue, where, problems)
            continue
        names = _placeholders_in(fvalue)
        referenced.update(names)
        for ref in names:
            if ref not in axes:
                problems.append(
                    PlanProblem(
                        where,
                        f"placeholder {{{ref}}} names no axis "
                        f"(axes: {', '.join(axis_names) or 'none'})",
                    )
                )
        if not names:
            _validate_field(fname, fvalue, where, problems)
        if fname in axes:
            problems.append(
                PlanProblem(
                    where,
                    f"'{fname}' is both a default and an axis; the axis "
                    "always wins — drop one",
                )
            )

    for axis in free_axes:
        values = axes[axis]
        if axis not in referenced and not any(isinstance(v, dict) for v in values):
            problems.append(
                PlanProblem(
                    f"axes.{axis}",
                    f"unused axis: not a cell field, never referenced as "
                    f"{{{axis}}}, and no mapping values",
                )
            )

    missing_workload = (
        "workload" not in axes
        and "workload" not in defaults
        and not any(
            isinstance(v, dict) and "workload" in v
            for axis in free_axes
            for v in axes.get(axis, [])
        )
    )
    if missing_workload and not figures:
        problems.append(
            PlanProblem(
                "defaults.workload",
                "no workload anywhere: add a workload axis or default",
            )
        )

    if problems:
        return problems, None

    if missing_workload:
        # A figures-only plan: no grid of its own, just the figure
        # list plus scale/seeds knobs for `figures --plan`.
        seed_values = axes.get("seed") or [
            defaults.get("seed", CELL_FIELDS["seed"][1])
        ]
        expanded = ExpandedPlan(
            name=name,
            description=description,
            source=source,
            cells=[],
            axes={axis: len(axes[axis]) for axis in axis_names},
            figures=list(figures),
            scale=float(defaults.get("scale", CELL_FIELDS["scale"][1])),
            seeds=tuple(seed_values),
        )
        return [], expanded

    # --- expansion (document is structurally clean) -------------------
    cells: List[RunConfig] = []
    seen: Dict[RunConfig, int] = {}
    base = {fname: default for fname, (_, default) in CELL_FIELDS.items()}
    base.update({k: v for k, v in defaults.items() if not _placeholders_in(v)})
    combos = itertools.product(*(axes[axis] for axis in axis_names)) if axis_names else [()]
    for index, combo in enumerate(combos):
        bindings = dict(zip(axis_names, combo))
        cell = dict(base)
        for fname, fvalue in defaults.items():
            if _placeholders_in(fvalue):
                cell[fname] = _substitute(fvalue, bindings)
        for axis, value in bindings.items():
            if axis in CELL_FIELDS:
                cell[axis] = value
            elif isinstance(value, dict):
                cell.update(value)
        # Substituted placeholder values re-validate here: an axis
        # feeding {rate} may hold values that are fine as, say, seeds
        # but out of range as rates.
        cell_problems: List[PlanProblem] = []
        for fname, fvalue in cell.items():
            _validate_field(fname, fvalue, f"cells[{index}].{fname}", cell_problems)
        if not cell_problems:
            placement_cls = PLACEMENT_POLICIES.get(cell["placement_policy"])
            if (
                placement_cls is not None
                and placement_cls.needs_arraylets
                and cell["collector"] in ("marksweep", "sticky-marksweep")
            ):
                cell_problems.append(
                    PlanProblem(
                        f"cells[{index}].placement_policy",
                        f"placement_policy {cell['placement_policy']!r} needs "
                        f"the collector's arraylet path; collector "
                        f"{cell['collector']!r} has none (choose an immix "
                        f"collector)",
                    )
                )
            uncompensable = compensation_problem(cell["rate"], cell["compensate"])
            if uncompensable:
                cell_problems.append(
                    PlanProblem(
                        f"cells[{index}].rate",
                        f"{uncompensable}; set compensate: false",
                    )
                )
        if cell_problems:
            problems.extend(cell_problems)
            continue
        config = cell_to_config(cell)
        if config in seen:
            problems.append(
                PlanProblem(
                    f"cells[{index}]",
                    f"duplicate of cells[{seen[config]}]: {cell_slug(config)}",
                )
            )
            continue
        seen[config] = index
        cells.append(config)

    if problems:
        return problems, None
    if not cells and not figures:
        return [PlanProblem("axes", "plan expands to zero cells")], None

    seeds = tuple(dict.fromkeys(config.seed for config in cells))
    expanded = ExpandedPlan(
        name=name,
        description=description,
        source=source,
        cells=cells,
        axes={axis: len(axes[axis]) for axis in axis_names},
        figures=list(figures),
        scale=float(cells[0].scale),
        seeds=seeds,
    )
    return [], expanded


def expand(doc: Dict[str, Any], source: str = "<plan>") -> ExpandedPlan:
    """Compile a raw document, raising :class:`PlanError` on problems."""
    problems, expanded = precheck(doc, source)
    if problems:
        raise PlanError(problems)
    assert expanded is not None
    return expanded


def load_and_expand(path: Union[str, Path]) -> ExpandedPlan:
    """Load a plan file, resolve includes, precheck, and expand."""
    return expand(load_plan(path), source=str(path))


# ----------------------------------------------------------------------
# Dry-run rendering
# ----------------------------------------------------------------------
def dry_run_payload(
    plan: ExpandedPlan, cache: Optional[ResultCache] = None
) -> Dict[str, Any]:
    """Machine-readable dry-run: the fully expanded cell list.

    Mirrors exactly what execution would run — same cells, same order —
    plus a per-cell cache estimate when a cache directory is supplied.
    """
    cached = plan.cached_flags(cache)
    return {
        "schema": "repro.plan-dry-run/1",
        "plan": plan.name,
        "source": plan.source,
        "cells": len(plan.cells),
        "axes": plan.axes,
        "figures": plan.figures,
        "cache": {
            "estimated_hits": sum(cached),
            "estimated_misses": len(cached) - sum(cached),
            "dir": str(cache.root) if cache is not None else None,
        },
        "cell_list": [
            {
                "index": index,
                "slug": cell_slug(config),
                "workload": config.workload,
                "rate": config.failure_model.rate,
                "heap": config.heap_multiplier,
                "line": config.immix_line,
                "clustering": config.failure_model.hw_region_pages,
                "cluster_bytes": config.failure_model.cluster_bytes,
                "collector": config.collector,
                "compensate": config.compensate,
                "arraylets": config.arraylets,
                "seed": config.seed,
                "scale": config.scale,
                "wear_policy": config.wear_policy,
                "pool_policy": config.pool_policy,
                "placement_policy": config.placement_policy,
                "cached": hit,
            }
            for index, (config, hit) in enumerate(zip(plan.cells, cached))
        ],
    }


def render_dry_run(plan: ExpandedPlan, cache: Optional[ResultCache] = None) -> str:
    """Human-readable dry-run table (the ``repro plan --dry-run`` body)."""
    payload = dry_run_payload(plan, cache)
    lines = [
        f"plan          {plan.name} ({plan.source})",
    ]
    if plan.description:
        lines.append(f"description   {plan.description}")
    axes = ", ".join(f"{axis}[{count}]" for axis, count in plan.axes.items())
    lines.append(f"axes          {axes or '(single cell)'}")
    if plan.figures:
        lines.append(f"figures       {', '.join(plan.figures)}")
    estimate = payload["cache"]
    if cache is not None:
        lines.append(
            f"cells         {payload['cells']} "
            f"({estimate['estimated_hits']} estimated cache hits, "
            f"{estimate['estimated_misses']} misses against {estimate['dir']})"
        )
    else:
        lines.append(f"cells         {payload['cells']}")
    lines.append("")
    lines.append(f"{'#':>4s}  {'cached':>6s}  slug")
    for entry in payload["cell_list"]:
        mark = "hit" if entry["cached"] else "-"
        lines.append(f"{entry['index']:>4d}  {mark:>6s}  {entry['slug']}")
    return "\n".join(lines)
