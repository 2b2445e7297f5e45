"""One harness per paper figure (see DESIGN.md's experiment index).

Each function sweeps the same workloads, parameters, and baselines as
the corresponding figure in the paper's evaluation (section 6), returns
the raw data points, and renders them with :mod:`repro.sim.report`.
Benchmarks in ``benchmarks/`` call these with reduced grids by default
and the full grids under ``REPRO_FULL=1``.

Every harness executes its whole grid in one
:meth:`~repro.sim.experiment.ExperimentRunner.run` call before
aggregating, as ``repro sweep`` would, so DNF-truncated curves still
run every cell they declare.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.generator import PAPER_FAILURE_RATES, FailureModel
from ..workloads.dacapo import analysis_suite, full_suite
from .experiment import ExperimentRunner, geomean
from .machine import RunConfig
from .report import render_bars, render_series, render_table

#: Heap sizes the paper sweeps (multiples of each benchmark's minimum).
HEAP_SWEEP = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0)

#: Immix line sizes evaluated (figure 6/7/9).
LINE_SIZES = (64, 128, 256)


def suite_names(include_buggy_lusearch: bool = False) -> List[str]:
    suite = full_suite() if include_buggy_lusearch else analysis_suite()
    return [spec.name for spec in suite]


def _baseline(scale: float) -> RunConfig:
    """Unmodified Sticky Immix: no failures, 2x heap, 256 B lines."""
    return RunConfig(workload="antlr", heap_multiplier=2.0, scale=scale)


def _execute_grid(
    runner: ExperimentRunner,
    names: Sequence[str],
    configs: Sequence[RunConfig],
) -> None:
    """Execute a figure's whole (workloads x configs) grid, so the
    aggregation that follows reads memoized results."""
    runner.run(
        replace(config, workload=name) for config in configs for name in names
    )


@dataclass
class FigureResult:
    """Uniform result container for all harnesses."""

    figure: str
    title: str
    #: Named series of (x, value-or-None) points, or table rows.
    series: Dict[str, List[Tuple[float, Optional[float]]]] = field(default_factory=dict)
    rows: List[Tuple[str, List[Optional[float]]]] = field(default_factory=list)
    columns: List[str] = field(default_factory=list)
    x_label: str = ""
    y_label: str = "normalized time"
    notes: str = ""

    def render(self) -> str:
        parts = []
        if self.series:
            parts.append(
                render_series(
                    f"{self.figure}: {self.title}",
                    self.series,
                    self.x_label,
                    self.y_label,
                )
            )
        if self.rows:
            parts.append(
                render_table(
                    f"{self.figure}: {self.title}", self.columns, self.rows
                )
            )
        if self.notes:
            parts.append(self.notes)
        return "\n\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-serializable form (None marks DNF points)."""
        return {
            "figure": self.figure,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": {
                name: [[x, value] for x, value in points]
                for name, points in self.series.items()
            },
            "rows": [[label, list(values)] for label, values in self.rows],
            "columns": list(self.columns),
            "notes": self.notes,
        }


# ======================================================================
# Figure 3: collector comparison without failures
# ======================================================================
def figure3(
    runner: ExperimentRunner,
    heap_multipliers: Sequence[float] = HEAP_SWEEP,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    """MS vs Immix vs the Sticky variants across heap sizes."""
    names = list(workloads or suite_names())
    reference = replace(
        _baseline(scale), heap_multiplier=max(heap_multipliers), collector="sticky-immix"
    )
    collectors = ("marksweep", "immix", "sticky-marksweep", "sticky-immix")
    _execute_grid(
        runner,
        names,
        [
            replace(_baseline(scale), collector=collector, heap_multiplier=multiplier)
            for collector in collectors
            for multiplier in heap_multipliers
        ]
        + [reference],
    )
    series: Dict[str, list] = {}
    for collector, label in (
        ("marksweep", "MS"),
        ("immix", "IX"),
        ("sticky-marksweep", "S-MS"),
        ("sticky-immix", "S-IX"),
    ):
        points = []
        for multiplier in heap_multipliers:
            config = replace(
                _baseline(scale), collector=collector, heap_multiplier=multiplier
            )
            points.append(
                (multiplier, runner.normalized_geomean(names, config, reference))
            )
        series[label] = points
    return FigureResult(
        figure="Figure 3",
        title="collector performance vs heap size (no failures)",
        series=series,
        x_label="heap (x min)",
        y_label="time / S-IX at largest heap (geomean)",
    )


# ======================================================================
# Figure 4: failure-aware S-IX with 2-page clustering, per benchmark
# ======================================================================
def figure4(
    runner: ExperimentRunner,
    rates: Sequence[float] = PAPER_FAILURE_RATES,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    names = list(workloads or suite_names(include_buggy_lusearch=True))
    baseline = _baseline(scale)
    _execute_grid(
        runner,
        names,
        [
            replace(baseline, failure_model=FailureModel(rate=rate, hw_region_pages=2))
            for rate in rates
        ]
        + [baseline],
    )
    rows: List[Tuple[str, List[Optional[float]]]] = []
    per_rate: Dict[float, List[float]] = {rate: [] for rate in rates}
    for name in names:
        values: List[Optional[float]] = []
        for rate in rates:
            config = replace(
                baseline,
                workload=name,
                failure_model=FailureModel(rate=rate, hw_region_pages=2),
            )
            overhead = runner.per_benchmark_overheads([name], config, baseline)[name]
            values.append(overhead)
            if overhead is not None and name != "lusearch":
                per_rate[rate].append(overhead)
        rows.append((name, values))
    rows.append(
        ("geomean*", [geomean(per_rate[rate]) if per_rate[rate] else None for rate in rates])
    )
    return FigureResult(
        figure="Figure 4",
        title="failure-aware S-IX + 2-page clustering vs unmodified S-IX (2x heap)",
        rows=rows,
        columns=[f"{rate:.0%}" for rate in rates],
        notes="* geomean excludes buggy lusearch, as in the paper.",
    )


# ======================================================================
# Figure 5: compensation and clustering across heap sizes at 10%
# ======================================================================
def figure5(
    runner: ExperimentRunner,
    heap_multipliers: Sequence[float] = HEAP_SWEEP,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    names = list(workloads or suite_names())
    reference = replace(_baseline(scale), heap_multiplier=max(heap_multipliers))
    variants = {
        "S-IXPCM (no failures)": (FailureModel(), True),
        "S-IXPCM 10% NoComp": (FailureModel(rate=0.10), False),
        "S-IXPCM 10%": (FailureModel(rate=0.10), True),
        "S-IXPCM 10% 2CL": (FailureModel(rate=0.10, hw_region_pages=2), True),
    }
    _execute_grid(
        runner,
        names,
        [
            replace(
                _baseline(scale),
                heap_multiplier=multiplier,
                failure_model=model,
                compensate=compensate,
            )
            for model, compensate in variants.values()
            for multiplier in heap_multipliers
        ]
        + [reference],
    )
    series: Dict[str, list] = {}
    for label, (model, compensate) in variants.items():
        points = []
        for multiplier in heap_multipliers:
            config = replace(
                _baseline(scale),
                heap_multiplier=multiplier,
                failure_model=model,
                compensate=compensate,
            )
            points.append(
                (multiplier, runner.normalized_geomean(names, config, reference))
            )
        series[label] = points
    return FigureResult(
        figure="Figure 5",
        title="memory compensation vs fragmentation at 10% failures",
        series=series,
        x_label="heap (x min)",
        y_label="time / no-failure S-IX at largest heap (geomean)",
    )


# ======================================================================
# Figure 6: Immix line size, without (a) and with (b) failures
# ======================================================================
def figure6(
    runner: ExperimentRunner,
    heap_multipliers: Sequence[float] = HEAP_SWEEP,
    line_sizes: Sequence[int] = LINE_SIZES,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Tuple[FigureResult, FigureResult]:
    names = list(workloads or suite_names())
    reference = replace(
        _baseline(scale), heap_multiplier=max(heap_multipliers), immix_line=256
    )
    _execute_grid(
        runner,
        names,
        [
            replace(
                _baseline(scale),
                immix_line=line,
                heap_multiplier=multiplier,
                failure_model=model,
            )
            for line in line_sizes
            for multiplier in heap_multipliers
            for model in (FailureModel(), FailureModel(rate=0.10))
        ]
        + [reference],
    )
    no_failure: Dict[str, list] = {}
    with_failure: Dict[str, list] = {}
    for line in line_sizes:
        clean_points, faulty_points = [], []
        for multiplier in heap_multipliers:
            clean = replace(
                _baseline(scale), immix_line=line, heap_multiplier=multiplier
            )
            clean_points.append(
                (multiplier, runner.normalized_geomean(names, clean, reference))
            )
            faulty = replace(clean, failure_model=FailureModel(rate=0.10))
            faulty_points.append(
                (multiplier, runner.normalized_geomean(names, faulty, reference))
            )
        no_failure[f"S-IX L{line}"] = clean_points
        with_failure[f"S-IXPCM L{line} 10%"] = faulty_points
    fig_a = FigureResult(
        figure="Figure 6a",
        title="Immix line size without failures",
        series=no_failure,
        x_label="heap (x min)",
        y_label="time / S-IX L256 at largest heap (geomean)",
    )
    fig_b = FigureResult(
        figure="Figure 6b",
        title="Immix line size with 10% failures, no clustering",
        series=with_failure,
        x_label="heap (x min)",
        y_label="time / S-IX L256 at largest heap (geomean)",
    )
    return fig_a, fig_b


# ======================================================================
# Figure 7: failure-rate sweep at fixed 2x heap
# ======================================================================
def figure7(
    runner: ExperimentRunner,
    rates: Sequence[float] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50),
    line_sizes: Sequence[int] = LINE_SIZES,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    names = list(workloads or suite_names())
    baseline = _baseline(scale)  # S-IX L256, no failures, 2x heap
    _execute_grid(
        runner,
        names,
        [
            replace(baseline, immix_line=line, failure_model=FailureModel(rate=rate))
            for line in line_sizes
            for rate in rates
        ]
        + [baseline],
    )
    series: Dict[str, list] = {}
    for line in line_sizes:
        points = []
        for rate in rates:
            config = replace(
                baseline, immix_line=line, failure_model=FailureModel(rate=rate)
            )
            points.append(
                (rate, runner.normalized_geomean(names, config, baseline))
            )
        series[f"S-IXPCM L{line}"] = points
    return FigureResult(
        figure="Figure 7",
        title="failure-rate sweep per line size, no clustering (2x heap)",
        series=series,
        x_label="failure rate",
        y_label="time / S-IX L256 no failures (geomean)",
    )


# ======================================================================
# Figure 8: clustering-granularity limit study
# ======================================================================
def figure8(
    runner: ExperimentRunner,
    granularities: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384),
    rates: Sequence[float] = (0.10, 0.25, 0.50),
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    names = list(workloads or suite_names())
    baseline = _baseline(scale)
    _execute_grid(
        runner,
        names,
        [
            replace(
                baseline,
                failure_model=FailureModel(rate=rate, cluster_bytes=granularity),
            )
            for rate in rates
            for granularity in granularities
        ]
        + [baseline],
    )
    series: Dict[str, list] = {}
    for rate in rates:
        points = []
        for granularity in granularities:
            config = replace(
                baseline,
                failure_model=FailureModel(rate=rate, cluster_bytes=granularity),
            )
            points.append(
                (granularity, runner.normalized_geomean(names, config, baseline))
            )
        series[f"{rate:.0%} failed"] = points
    return FigureResult(
        figure="Figure 8",
        title="failure clustering granularity limit study (S-IXPCM L256, 2x heap)",
        series=series,
        x_label="cluster bytes",
        y_label="time / unmodified S-IX (geomean)",
    )


# ======================================================================
# Figure 9: proposed clustering hardware — performance and page demand
# ======================================================================
def figure9(
    runner: ExperimentRunner,
    rates: Sequence[float] = PAPER_FAILURE_RATES,
    line_sizes: Sequence[int] = LINE_SIZES,
    clusterings: Sequence[int] = (0, 1, 2),
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Tuple[FigureResult, FigureResult]:
    names = list(workloads or suite_names())
    baseline = _baseline(scale)
    _execute_grid(
        runner,
        names,
        [
            replace(
                baseline,
                immix_line=line,
                failure_model=FailureModel(rate=rate, hw_region_pages=clustering),
            )
            for clustering in clusterings
            for line in line_sizes
            for rate in rates
        ]
        + [baseline],
    )
    perf: Dict[str, list] = {}
    demand: Dict[str, list] = {}
    for clustering in clusterings:
        suffix = {0: "", 1: " 1CL", 2: " 2CL"}.get(clustering, f" {clustering}CL")
        for line in line_sizes:
            label = f"L{line}{suffix}"
            perf_points, demand_points = [], []
            for rate in rates:
                config = replace(
                    baseline,
                    immix_line=line,
                    failure_model=FailureModel(rate=rate, hw_region_pages=clustering),
                )
                perf_points.append(
                    (rate, runner.normalized_geomean(names, config, baseline))
                )
                demand_points.append((rate, runner.geomean_demand(names, config)))
            perf[label] = perf_points
            demand[label] = demand_points
    fig_a = FigureResult(
        figure="Figure 9a",
        title="hardware failure clustering: performance (2x heap)",
        series=perf,
        x_label="failure rate",
        y_label="time / unmodified S-IX (geomean)",
    )
    fig_b = FigureResult(
        figure="Figure 9b",
        title="hardware failure clustering: perfect-page demand",
        series=demand,
        x_label="failure rate",
        y_label="perfect-page requests (geomean)",
    )
    return fig_a, fig_b


# ======================================================================
# Figure 10: per-benchmark, 1- vs 2-page clustering
# ======================================================================
def figure10(
    runner: ExperimentRunner,
    rates: Sequence[float] = (0.10, 0.25, 0.50),
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    names = list(workloads or suite_names())
    baseline = _baseline(scale)
    _execute_grid(
        runner,
        names,
        [
            replace(
                baseline,
                failure_model=FailureModel(rate=rate, hw_region_pages=clustering),
            )
            for clustering in (1, 2)
            for rate in rates
        ]
        + [baseline],
    )
    rows = []
    columns = []
    for name in names:
        values: List[Optional[float]] = []
        for clustering in (1, 2):
            for rate in rates:
                config = replace(
                    baseline,
                    workload=name,
                    failure_model=FailureModel(rate=rate, hw_region_pages=clustering),
                )
                values.append(
                    runner.per_benchmark_overheads([name], config, baseline)[name]
                )
        rows.append((name, values))
    columns = [f"1CL {r:.0%}" for r in rates] + [f"2CL {r:.0%}" for r in rates]
    return FigureResult(
        figure="Figure 10",
        title="per-benchmark overhead under 1- and 2-page clustering",
        rows=rows,
        columns=columns,
    )


# ======================================================================
# Policies: wear-management baselines on one failure-sweep axis
# ======================================================================
#: (label, RunConfig overrides) for every comparative baseline. The
#: first entry is the paper's default triple; the rest swap exactly one
#: policy seam so the figure isolates each axis (see repro.policies).
POLICY_VARIANTS: Tuple[Tuple[str, Dict[str, str]], ...] = (
    ("paper (none/paper/paper)", {}),
    ("wolfram remap WL", {"wear_policy": "wolfram"}),
    ("softwear rotation WL", {"wear_policy": "softwear"}),
    ("migrant page pool", {"pool_policy": "migrant"}),
    ("HRM placement", {"placement_policy": "hrm"}),
)


def policy_comparison(
    runner: ExperimentRunner,
    rates: Sequence[float] = (0.0, 0.10, 0.25, 0.50),
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    """All wear-management policies on one failure-rate sweep (2x heap).

    Every series normalizes against the same no-failure default-policy
    baseline, so the default series reproduces figure 7's L256 curve and
    the baselines read directly as relative overhead or benefit.
    """
    names = list(workloads or suite_names())
    baseline = _baseline(scale)
    _execute_grid(
        runner,
        names,
        [
            replace(
                baseline,
                failure_model=FailureModel(rate=rate),
                **overrides,
            )
            for _, overrides in POLICY_VARIANTS
            for rate in rates
        ]
        + [baseline],
    )
    series: Dict[str, list] = {}
    for label, overrides in POLICY_VARIANTS:
        points = []
        for rate in rates:
            config = replace(
                baseline, failure_model=FailureModel(rate=rate), **overrides
            )
            points.append(
                (rate, runner.normalized_geomean(names, config, baseline))
            )
        series[label] = points
    return FigureResult(
        figure="Policies",
        title="wear-management policy comparison, no clustering (2x heap)",
        series=series,
        x_label="failure rate",
        y_label="time / default policies, no failures (geomean)",
        notes=(
            "each baseline swaps one policy seam vs the paper default: "
            "wolfram = programmable-decoder line remap; softwear = "
            "software region rotation; migrant = hot/cold whole-page "
            "migration pool; HRM = error-tolerance placement split."
        ),
    )


# ======================================================================
# Section 4.2: full-heap collection pauses
# ======================================================================
def section42_pauses(
    runner: ExperimentRunner,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    names = list(workloads or suite_names())
    _execute_grid(runner, names, [_baseline(scale)])
    rows = []
    pauses: Dict[str, float] = {}
    for name in names:
        config = replace(_baseline(scale), workload=name)
        measurement = runner.measure(config)
        pause = (
            sum(r.full_gc_pause_ms for r in measurement.results if r.completed)
            / max(1, sum(1 for r in measurement.results if r.completed))
        )
        pauses[name] = pause
        rows.append((name, [pause]))
    mean_pause = sum(pauses.values()) / len(pauses)
    rows.append(("mean", [mean_pause]))
    worst = max(pauses, key=pauses.get)
    return FigureResult(
        figure="Section 4.2",
        title="estimated full-heap collection pauses (2x heap)",
        rows=rows,
        columns=["pause (ms)"],
        notes=(
            f"worst: {worst} at {pauses[worst]:.1f} ms; paper reports a 7 ms "
            "mean with hsqldb worst at 44 ms."
        ),
    )


# ======================================================================
# Headline numbers (abstract / section 8)
# ======================================================================
def headline(
    runner: ExperimentRunner,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> FigureResult:
    names = list(workloads or suite_names())
    baseline = _baseline(scale)
    headline_models = (
        ("no failures, failure-aware", FailureModel()),
        ("10% unclustered", FailureModel(rate=0.10)),
        ("50% unclustered", FailureModel(rate=0.50)),
        ("10% + 2-page clustering", FailureModel(rate=0.10, hw_region_pages=2)),
        ("50% + 2-page clustering", FailureModel(rate=0.50, hw_region_pages=2)),
    )
    _execute_grid(
        runner,
        names,
        [replace(baseline, failure_model=model) for _, model in headline_models]
        + [baseline],
    )
    rows = []
    for label, model in headline_models:
        config = replace(baseline, failure_model=model)
        value = runner.normalized_geomean(names, config, baseline)
        rows.append((label, [value]))
    return FigureResult(
        figure="Headline",
        title="geomean overhead vs unmodified Sticky Immix (2x heap)",
        rows=rows,
        columns=["time ratio"],
        notes=(
            "paper: 1.00 with no failures; ~1.17/1.33 at 10%/50% without "
            "clustering; 1.039/1.124 at 10%/50% with clustering."
        ),
    )
