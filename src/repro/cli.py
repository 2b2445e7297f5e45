"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``    regenerate one or more of the paper's figures
``sweep``      run a (workload x rate x heap) grid, in parallel
``plan``       precheck / dry-run a declarative experiment plan
``report``     aggregate a sweep flight-recorder ledger
``bench``      run one workload at one configuration and dump counters
``trace``      record a Chrome trace of one (wearing) run
``check``      run a randomized fault-injection audit campaign
``lifetime``   age a PCM module under a wear-management strategy
``serve``      long-running shared-cache experiment service (HTTP)
``workloads``  list the synthetic DaCapo-style workloads

Grids can be spelled as flags or as declarative **experiment plans**
(YAML/JSON files with Cartesian sweep expansion; see
:mod:`repro.sim.plan` and the shipped files under ``plans/``):
``repro plan FILE`` prechecks a plan against the schema and exits 2 on
any violation, ``repro plan FILE --dry-run`` renders the fully
expanded cell list (with estimated cache hits against ``--cache-dir``)
without executing anything, and ``sweep --plan FILE`` /
``figures --plan FILE`` execute one — through exactly the same
cache/retry/quarantine machinery as the flag spelling, producing a
bit-identical ``results`` section for the same grid.

The ``figures`` and ``sweep`` commands accept ``--jobs`` (fan the grid
out over worker processes; results are bit-identical to serial) and
``--cache-dir`` (persist completed cells on disk so re-runs are nearly
free). ``sweep`` additionally writes a ``BENCH_sweep.json`` artifact
with per-cell wall times, cache hit/miss counts, worker utilization,
and a deterministic ``results`` section.

Sweeps are fault tolerant and resumable: parallel cells run on
persistent workers that replace a crashed or hung worker, a cell that
fails is quarantined (exit code 3, partial artifact) instead of
aborting the sweep, and ``--retries``/``--timeout`` give each cell
more attempts (with backoff) and a wall-time budget. ``sweep
--resume`` restarts a killed sweep against the same ``--cache-dir``:
completed cells replay from the cache and only the remainder
re-executes. ``bench`` can snapshot the whole simulated machine every
N driver steps (``--checkpoint-every``) and continue from a snapshot
(``--resume-from``) with bit-identical results; ``lifetime`` does the
same at iteration granularity.

Output streams follow one convention (see :mod:`repro.obs.log`):
stdout carries primary output — human reports (suppressed by ``-q``)
and machine-readable JSON (never suppressed) — while stderr carries
narration. ``figures``, ``sweep`` and ``bench`` accept ``--trace`` and
``--metrics-out`` to record Chrome traces / Prometheus metrics of the
runs they execute; ``trace`` is the dedicated single-run recorder and
defaults to a *wearing* module so the hardware failure path is hot.

Where the *harness* spends real wall-clock time is a separate
recorder: ``sweep --ledger PATH`` appends per-cell flight-recorder
events (queue, attempt, retry, cache, quarantine — schema
``repro.ledger/1``) from every process the sweep touches,
``--progress`` narrates live done/total + hit rate + ETA, and
``--profile-cells`` runs cProfile inside the workers. ``repro report
LEDGER`` folds the ledger into a wall-clock breakdown (phase totals,
slowest cells, hotspots) and can export a merged wall-clock Chrome
trace with one track per worker. All of it is observational: the
artifact's ``results`` section is bit-identical with the recorder on
or off.

Examples::

    python -m repro workloads
    python -m repro figures headline fig4 --scale 0.35
    python -m repro figures all --jobs 4 --cache-dir .repro-cache
    python -m repro sweep --workloads pmd xalan --rates 0 0.1 0.5 --jobs 4
    python -m repro plan plans/smoke.yaml --dry-run --cache-dir .repro-cache
    python -m repro sweep --plan plans/smoke.yaml --jobs 4
    python -m repro sweep --plan plans/smoke.yaml --jobs 4 --progress \
        --ledger sweep.ledger.jsonl --profile-cells
    python -m repro report sweep.ledger.jsonl --json --trace-out wall.json
    python -m repro bench pmd --rate 0.25 --clustering 2 --heap 2.0
    python -m repro trace --workload luindex --scale 0.1 --out trace.json
    python -m repro check --seed 0
    python -m repro lifetime --strategy retire --iterations 10
    python -m repro serve --port 8321 --cache-dir .repro-cache --jobs 4
    python -m repro.serve.client plans/smoke.yaml --out artifact.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import List, Optional

from .check.audit import VERIFY_LEVELS
from .errors import PlanError, SnapshotError
from .faults.generator import FailureModel
from .ioutil import atomic_write_json, atomic_write_text
from .obs import log as obslog
from .obs.ledger import SweepLedger, SweepProgress, aggregate, read_ledger
from .obs.metrics import (
    SWEEP_CRASHES_TOTAL,
    SWEEP_QUARANTINED_CELLS_TOTAL,
    SWEEP_RETRIES_TOTAL,
    SWEEP_TIMEOUTS_TOTAL,
    MetricsRegistry,
)
from .obs.profile import merge_profiles, render_hotspots
from .obs.trace import DEFAULT_CAPACITY, Tracer
from .sim.cache import ResultCache, result_to_dict
from .sim.chaos import ChaosConfig
from .sim.experiment import ExperimentRunner
from .sim.ftexec import RetryPolicy
from .sim.machine import (
    RunConfig,
    resume_benchmark,
    run_benchmark,
    run_wearing_benchmark,
)
from .sim.parallel import run_grid
from .sim.plan import cell_slug, dry_run_payload, load_and_expand, render_dry_run
from .sim.snapshot import CheckpointPolicy
from .workloads.dacapo import DACAPO

#: figure name -> callable(runner, scale) -> list of FigureResult
_FIGURES = {}


def _register_figures() -> None:
    from .sim import experiments as ex

    _FIGURES.update(
        {
            "fig3": lambda r, s: [ex.figure3(r, scale=s)],
            "fig4": lambda r, s: [ex.figure4(r, scale=s)],
            "fig5": lambda r, s: [ex.figure5(r, scale=s)],
            "fig6": lambda r, s: list(ex.figure6(r, scale=s)),
            "fig7": lambda r, s: [ex.figure7(r, scale=s)],
            "fig8": lambda r, s: [ex.figure8(r, scale=s)],
            "fig9": lambda r, s: list(ex.figure9(r, scale=s)),
            "fig10": lambda r, s: [ex.figure10(r, scale=s)],
            "pauses": lambda r, s: [ex.section42_pauses(r, scale=s)],
            "headline": lambda r, s: [ex.headline(r, scale=s)],
            "policies": lambda r, s: [ex.policy_comparison(r, scale=s)],
        }
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Failure-aware managed runtimes for wearable memories "
        "(PLDI 2013 reproduction)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress human reports and narration (JSON output and "
        "warnings still print)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="debug narration on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument(
        "names",
        nargs="*",
        default=["headline"],
        help="figure ids (fig3..fig10, pauses, headline, or 'all')",
    )
    figures.add_argument("--scale", type=float, default=0.35)
    figures.add_argument("--seeds", type=int, nargs="+", default=[0])
    figures.add_argument("--progress", action="store_true")
    figures.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    figures.add_argument(
        "--plan",
        metavar="FILE",
        default=None,
        help="take the figure list, scale, and seeds from an experiment "
        "plan (its 'figures' key) instead of the flags",
    )
    _add_execution_arguments(figures)
    _add_fault_tolerance_arguments(figures)
    _add_observability_arguments(figures, directory=True)
    figures.add_argument(
        "--sweep-json",
        metavar="PATH",
        default=None,
        help="write a BENCH_sweep.json execution artifact to PATH",
    )
    figures.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="append wall-clock flight-recorder events for every "
        "prefetch fan-out to PATH (aggregate with 'repro report')",
    )

    sweep = sub.add_parser(
        "sweep", help="run a (workload x rate x heap) grid in parallel"
    )
    sweep.add_argument(
        "--workloads", nargs="+", default=None, metavar="NAME",
        help="workload subset (default: analysis suite)",
    )
    sweep.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.10, 0.25, 0.50]
    )
    sweep.add_argument("--heaps", type=float, nargs="+", default=[2.0])
    sweep.add_argument("--clustering", type=int, default=0, metavar="PAGES")
    sweep.add_argument("--line", type=int, default=256, choices=[64, 128, 256])
    sweep.add_argument("--seeds", type=int, nargs="+", default=[0])
    sweep.add_argument("--scale", type=float, default=0.35)
    _add_policy_arguments(sweep)
    sweep.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_sweep.json",
        help="sweep artifact path (default: %(default)s)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="restart an interrupted sweep: replay completed cells from "
        "--cache-dir (required) and execute only the remainder",
    )
    sweep.add_argument(
        "--plan",
        metavar="FILE",
        default=None,
        help="run the grid an experiment plan expands to (YAML/JSON, "
        "see plans/); conflicts with the grid-shape flags",
    )
    _add_execution_arguments(sweep)
    _add_fault_tolerance_arguments(sweep)
    _add_observability_arguments(sweep, directory=True)
    sweep.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="append per-cell wall-clock flight-recorder events "
        "(schema repro.ledger/1, JSONL) from every sweep process to "
        "PATH; aggregate with 'repro report'",
    )
    sweep.add_argument(
        "--profile-cells",
        action="store_true",
        help="run each worker attempt under cProfile and spool pstats "
        "per cell ('repro report' merges them into a hotspot table); "
        "implies a ledger (default: <out>.ledger.jsonl)",
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="narrate live progress on stderr: done/total, running "
        "cells, cache hit rate, EMA-based ETA",
    )

    plan = sub.add_parser(
        "plan",
        help="precheck and dry-run a declarative experiment plan",
    )
    plan.add_argument("file", metavar="FILE", help="plan file (YAML or JSON)")
    plan.add_argument(
        "--dry-run",
        action="store_true",
        help="render the fully expanded cell list (count, per-cell "
        "slugs, estimated cache hits) without executing anything",
    )
    plan.add_argument(
        "--json", action="store_true", help="emit the dry run as JSON"
    )
    plan.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="estimate dry-run cache hits against this result cache",
    )
    plan.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the cache-hit estimate even with --cache-dir",
    )

    report = sub.add_parser(
        "report",
        help="aggregate a sweep flight-recorder ledger into a "
        "wall-clock breakdown",
    )
    report.add_argument(
        "ledger",
        metavar="LEDGER",
        help="ledger JSONL file written by 'sweep --ledger'",
    )
    report.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    report.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows in the slowest-cells and hotspot tables "
        "(default: %(default)s)",
    )
    report.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also export the ledger as a merged wall-clock Chrome "
        "trace (one track per worker process)",
    )

    bench = sub.add_parser("bench", help="run one workload configuration")
    bench.add_argument("workload")
    bench.add_argument("--heap", type=float, default=2.0, metavar="MULTIPLIER")
    bench.add_argument("--rate", type=float, default=0.0)
    bench.add_argument("--clustering", type=int, default=0, metavar="PAGES")
    bench.add_argument("--line", type=int, default=256, choices=[64, 128, 256])
    bench.add_argument(
        "--collector",
        default="sticky-immix",
        choices=["immix", "sticky-immix", "marksweep", "sticky-marksweep"],
    )
    bench.add_argument("--no-compensate", action="store_true")
    bench.add_argument(
        "--arraylets",
        action="store_true",
        help="discontiguous arrays instead of the page-grained LOS",
    )
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument("--seed", type=int, default=0)
    _add_policy_arguments(bench)
    bench.add_argument(
        "--verify-heap",
        default=None,
        choices=list(VERIFY_LEVELS),
        metavar="LEVEL",
        help="cross-layer heap auditing: off, gc, upcall, or paranoid "
        "(default: the REPRO_VERIFY environment variable, else off)",
    )
    bench.add_argument(
        "--checkpoint",
        metavar="PATH",
        default="BENCH_checkpoint.snap",
        help="machine-snapshot path for --checkpoint-every "
        "(default: %(default)s)",
    )
    bench.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="STEPS",
        help="snapshot the whole simulated machine every N driver steps "
        "(0 = off); the snapshot resumes with --resume-from",
    )
    bench.add_argument(
        "--resume-from",
        metavar="PATH",
        default=None,
        help="continue an interrupted run from a checkpoint snapshot; "
        "the configuration travels inside the snapshot and the result "
        "is bit-identical to an uninterrupted run",
    )
    _add_observability_arguments(bench, directory=False)

    trace = sub.add_parser(
        "trace", help="record a Chrome trace (Perfetto-loadable) of one run"
    )
    trace.add_argument("--workload", required=True)
    trace.add_argument("--heap", type=float, default=2.0, metavar="MULTIPLIER")
    trace.add_argument("--rate", type=float, default=0.0)
    trace.add_argument("--clustering", type=int, default=2, metavar="PAGES")
    trace.add_argument("--line", type=int, default=256, choices=[64, 128, 256])
    trace.add_argument(
        "--collector",
        default="sticky-immix",
        choices=["immix", "sticky-immix", "marksweep", "sticky-marksweep"],
    )
    trace.add_argument("--scale", type=float, default=0.35)
    trace.add_argument("--seed", type=int, default=0)
    _add_policy_arguments(trace)
    trace.add_argument(
        "--wear",
        type=float,
        default=25.0,
        metavar="WRITES",
        help="mean line endurance in writes; the run wears the module so "
        "dynamic failures arrive mid-run (0 = aged module, static "
        "failures only; default: %(default)s)",
    )
    trace.add_argument(
        "--out",
        metavar="PATH",
        default="trace.json",
        help="Chrome trace_event JSON output (default: %(default)s)",
    )
    trace.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help="also write raw events as JSON Lines to PATH",
    )
    trace.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write Prometheus text-format metrics to PATH",
    )
    trace.add_argument(
        "--buffer",
        type=int,
        default=DEFAULT_CAPACITY,
        metavar="EVENTS",
        help="trace ring-buffer capacity (default: %(default)s)",
    )

    check = sub.add_parser(
        "check", help="run a randomized fault-injection audit campaign"
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--workloads", nargs="+", default=None, metavar="NAME",
        help="workload subset (default: luindex antlr fop)",
    )
    check.add_argument("--scale", type=float, default=0.05)
    check.add_argument(
        "--level",
        default="paranoid",
        choices=[lvl for lvl in VERIFY_LEVELS if lvl != "off"],
        help="audit trigger density (default: %(default)s)",
    )

    lifetime = sub.add_parser("lifetime", help="age a PCM module")
    lifetime.add_argument(
        "--strategy",
        default="aware",
        choices=["retire", "aware", "clustered", "start-gap"],
    )
    lifetime.add_argument("--workload", default="avrora")
    lifetime.add_argument("--iterations", type=int, default=12)
    lifetime.add_argument("--endurance", type=float, default=40.0)
    lifetime.add_argument(
        "--checkpoint",
        metavar="PATH",
        default="LIFETIME_checkpoint.snap",
        help="snapshot path for --checkpoint-every (default: %(default)s)",
    )
    lifetime.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="ITERS",
        help="snapshot the aging module every N completed iterations "
        "(0 = off); not supported by the 'retire' strategy",
    )
    lifetime.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="continue an aging study from a lifetime snapshot (pass "
        "the same strategy/workload/endurance arguments)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived shared-cache experiment service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port (0 = ephemeral; default: %(default)s)",
    )
    _add_execution_arguments(serve)
    _add_fault_tolerance_arguments(serve)

    sub.add_parser("workloads", help="list workloads")
    return parser


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    """The three policy seams (see repro.policies); defaults = paper."""
    from .policies import PLACEMENT_POLICIES, POOL_POLICIES, WEAR_POLICIES

    parser.add_argument(
        "--wear-policy",
        default="none",
        choices=sorted(WEAR_POLICIES),
        help="hardware wear-leveling policy (default: %(default)s, "
        "the paper's design)",
    )
    parser.add_argument(
        "--pool-policy",
        default="paper",
        choices=sorted(POOL_POLICIES),
        help="OS page-pool supply/migration policy (default: %(default)s)",
    )
    parser.add_argument(
        "--placement-policy",
        default="paper",
        choices=sorted(PLACEMENT_POLICIES),
        help="runtime large-object placement policy (default: %(default)s)",
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared parallel/cache knobs for grid-running subcommands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the run grid (0 = one per CPU); "
        "parallel results are bit-identical to serial",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist completed cells here; re-runs skip cached cells",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir: neither read nor write the disk cache",
    )


def _add_fault_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared retry/timeout knobs for grid-running subcommands.

    Parallel cells always run on the worker executor
    (:mod:`repro.sim.ftexec`); these set how many attempts a cell gets
    and how long each may run. Any of them (or an armed
    ``REPRO_CHAOS``) also moves a ``--jobs 1`` run from in-process onto
    one worker.
    """
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="attempts per cell before quarantine (default: 1, or "
        f"{RetryPolicy().max_attempts} when --retry-delay, --timeout or "
        "REPRO_CHAOS is set; 1 = quarantine on first failure)",
    )
    parser.add_argument(
        "--retry-delay",
        type=float,
        default=None,
        metavar="SECONDS",
        help="base delay before the first retry; doubles per attempt "
        f"with deterministic jitter (default: {RetryPolicy().base_delay_s:g})",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any cell attempt running longer than this",
    )


def _build_retry_policy(args) -> Optional[RetryPolicy]:
    """The retry policy implied by the flags; None is one attempt per
    cell.

    ``--timeout`` or an armed ``REPRO_CHAOS`` on its own gets the
    default retries: a cell stopped for overrunning, or by an injected
    failure, deserves another attempt.
    """
    chaos_armed = ChaosConfig.from_env() is not None
    if args.retries is None and args.retry_delay is None and not (
        args.timeout is not None or chaos_armed
    ):
        return None
    defaults = RetryPolicy()
    return RetryPolicy(
        max_attempts=(
            args.retries if args.retries is not None else defaults.max_attempts
        ),
        base_delay_s=(
            args.retry_delay
            if args.retry_delay is not None
            else defaults.base_delay_s
        ),
    )


def _sweep_metrics_registry(stats) -> MetricsRegistry:
    """Executor counters as metrics (the untraced sweep/figures path)."""
    registry = MetricsRegistry()
    report = stats.fault_tolerance
    registry.counter(
        SWEEP_RETRIES_TOTAL, "cell attempts retried after a failure"
    ).inc(report.retries)
    registry.counter(
        SWEEP_TIMEOUTS_TOTAL, "cell attempts killed for overrunning --timeout"
    ).inc(report.timeouts)
    registry.counter(
        SWEEP_CRASHES_TOTAL, "worker processes that died mid-cell"
    ).inc(report.worker_crashes)
    registry.counter(
        SWEEP_QUARANTINED_CELLS_TOTAL, "cells abandoned after exhausting retries"
    ).inc(len(report.quarantined))
    return registry


def _add_observability_arguments(
    parser: argparse.ArgumentParser, directory: bool
) -> None:
    """Shared ``--trace``/``--metrics-out`` knobs.

    Grid commands take a directory (one Chrome trace per cell); bench
    takes a single output file.
    """
    if directory:
        parser.add_argument(
            "--trace",
            metavar="DIR",
            default=None,
            help="record a Chrome trace per executed cell into DIR "
            "(forces serial, uncached execution)",
        )
    else:
        parser.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="record a Chrome trace of the measured run to PATH",
        )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write Prometheus text-format metrics to PATH",
    )


def _build_sweep_recorder(args):
    """(ledger, profile_dir) implied by the sweep recorder flags.

    ``--progress`` alone records in memory (listeners only, no file);
    ``--profile-cells`` needs a file for workers to announce their
    spools in, so it defaults the ledger to ``<out>.ledger.jsonl``.
    """
    if not (args.ledger or args.profile_cells or args.progress):
        return None, None
    ledger_path = args.ledger
    if ledger_path is None and args.profile_cells:
        ledger_path = os.path.splitext(args.out)[0] + ".ledger.jsonl"
        obslog.info(f"--profile-cells: recording ledger at {ledger_path}")
    ledger = SweepLedger(ledger_path)
    if args.progress:
        ledger.add_listener(SweepProgress(log=obslog.info))
    profile_dir = None
    if args.profile_cells:
        profile_dir = os.path.splitext(ledger_path)[0] + ".profiles"
    return ledger, profile_dir


def _build_cache(args) -> Optional[ResultCache]:
    if args.no_cache or not args.cache_dir:
        return None
    cache = ResultCache(args.cache_dir)
    # Writers killed mid-publish (chaos, OOM-killer, a yanked node) can
    # only leak unrenamed *.tmp files; reclaim them on startup.
    removed = cache.sweep_orphans()
    if removed:
        obslog.debug(f"cache: removed {removed} orphaned temp file(s)")
    return cache


def _trace_slug(config: RunConfig) -> str:
    """Filesystem-safe cell identifier for per-cell trace files.

    Delegates to :func:`repro.sim.plan.cell_slug`, which covers every
    sweepable dimension — an earlier version omitted clustering and
    scale, so cells differing only there overwrote each other's traces.
    """
    return cell_slug(config)


def _trace_metadata(config: RunConfig, result=None) -> dict:
    meta = {
        "workload": config.workload,
        "collector": config.collector,
        "rate": config.failure_model.rate,
        "heap_multiplier": config.heap_multiplier,
        "immix_line": config.immix_line,
        "seed": config.seed,
        "scale": config.scale,
    }
    if result is not None:
        meta["completed"] = result.completed
        meta["time_units"] = result.time_units
        meta["dynamic_failed_lines"] = result.stats.get("dynamic_failed_lines", 0)
    return meta


def _write_metrics(registry: MetricsRegistry, path: str) -> None:
    atomic_write_text(path, registry.render_prometheus())
    obslog.info(f"metrics: {path}")


def _render_phase_breakdown(breakdown: dict, total: float) -> List[str]:
    lines = ["phase breakdown (simulated time units)"]
    for phase, units in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        share = units / total if total else 0.0
        lines.append(f"  {phase:16s} {units:16.0f} {share:7.1%}")
    return lines


def _write_sweep_artifact(path: str, stats_dict: dict) -> None:
    # Atomic publish: a sweep killed mid-write must leave any previous
    # artifact intact, not a torn BENCH_sweep.json — the same guarantee
    # ResultCache.put makes for cache entries.
    atomic_write_json(path, stats_dict, indent=2)
    cache = stats_dict.get("cache", {})
    obslog.info(
        f"sweep artifact: {path} ({stats_dict['cells']} cells, "
        f"{cache.get('hits', 0)} cache hits, {cache.get('misses', 0)} misses, "
        f"utilization {stats_dict['utilization']:.0%})"
    )


#: Grid-shape flags `sweep --plan` refuses to mix with a plan file:
#: (flag, argparse attribute, parser default).
_SWEEP_GRID_FLAGS = (
    ("--workloads", "workloads", None),
    ("--rates", "rates", [0.0, 0.10, 0.25, 0.50]),
    ("--heaps", "heaps", [2.0]),
    ("--clustering", "clustering", 0),
    ("--line", "line", 256),
    ("--seeds", "seeds", [0]),
    ("--scale", "scale", 0.35),
    ("--wear-policy", "wear_policy", "none"),
    ("--pool-policy", "pool_policy", "paper"),
    ("--placement-policy", "placement_policy", "paper"),
)


def cmd_figures(args) -> int:
    _register_figures()
    names = list(args.names)
    scale = args.scale
    seeds = list(args.seeds)
    if args.plan:
        conflicts = []
        if names != ["headline"]:
            conflicts.append("explicit figure names")
        if scale != 0.35:
            conflicts.append("--scale")
        if seeds != [0]:
            conflicts.append("--seeds")
        if conflicts:
            obslog.warn(
                "--plan supplies the figure list, scale, and seeds; "
                f"drop {', '.join(conflicts)} or the plan"
            )
            return 2
        plan = load_and_expand(args.plan)
        if not plan.figures:
            obslog.warn(
                f"plan {plan.name!r} lists no figures; add a 'figures:' "
                "key or run it with 'sweep --plan'"
            )
            return 2
        names = list(plan.figures)
        scale = plan.scale
        seeds = list(plan.seeds)
    if names == ["all"] or "all" in names:
        names = list(_FIGURES)
    unknown = [n for n in names if n not in _FIGURES]
    if unknown:
        obslog.warn(f"unknown figures: {', '.join(unknown)}")
        obslog.warn(f"available: {', '.join(_FIGURES)}")
        return 2
    progress = (lambda m: obslog.info(f"  .. {m}")) if args.progress else None
    cache = _build_cache(args)
    jobs = args.jobs
    registry = None
    tracer_factory = None
    trace_sink = None
    if args.trace and args.ledger:
        # Traced figures run serially in-process; there is no fan-out
        # for a flight recorder to observe.
        obslog.warn(
            "--trace runs cells serially in-process, which bypasses "
            "the fan-out --ledger records; drop one of the two"
        )
        return 2
    ledger = SweepLedger(args.ledger) if args.ledger else None
    if args.trace or args.metrics_out:
        registry = MetricsRegistry()
    if args.trace:
        # Tracers survive neither worker processes nor the disk cache:
        # a traced figure run is serial and pays for every cell.
        if jobs != 1:
            obslog.warn("--trace forces serial execution; ignoring --jobs")
            jobs = 1
        if cache is not None:
            obslog.warn("--trace disables the result cache for this run")
            cache = None
        os.makedirs(args.trace, exist_ok=True)

        def tracer_factory(config):
            return Tracer(metrics=registry)

        def trace_sink(config, tracer):
            from .obs.export import write_chrome_trace

            path = os.path.join(args.trace, _trace_slug(config) + ".trace.json")
            write_chrome_trace(tracer, path, metadata=_trace_metadata(config))
            obslog.debug(f"trace: {path}")

    runner = ExperimentRunner(
        seeds=tuple(seeds),
        progress=progress,
        cache=cache,
        jobs=jobs,
        tracer_factory=tracer_factory,
        trace_sink=trace_sink,
        retry=_build_retry_policy(args),
        timeout_s=args.timeout,
        ledger=ledger,
    )
    if args.json:
        payload = {
            name: [result.to_dict() for result in _FIGURES[name](runner, scale)]
            for name in names
        }
        print(json.dumps(payload, indent=2))
    else:
        for name in names:
            for result in _FIGURES[name](runner, scale):
                obslog.out(result.render())
                obslog.out()
    if cache is not None:
        counters = cache.counters()
        obslog.info(
            f"cache: {counters['hits']} hits, {counters['misses']} misses, "
            f"{counters['stores']} stores ({args.cache_dir})"
        )
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    if ledger is not None and ledger.path:
        obslog.info(
            f"ledger: {ledger.path} ({len(ledger.events)} parent events; "
            "aggregate with 'repro report')"
        )
    if args.sweep_json:
        summary = runner.sweep_summary()
        if summary is None:
            from .sim.parallel import SweepStats

            summary = SweepStats(jobs=max(1, jobs))
        payload = summary.to_dict()
        if cache is not None:
            # The runner's lazy path also consults the cache directly;
            # the cache's own counters are the authoritative totals.
            payload["cache"] = {"hits": cache.hits, "misses": cache.misses}
        _write_sweep_artifact(args.sweep_json, payload)
    return 0


def cmd_sweep(args) -> int:
    from .workloads.dacapo import DACAPO, analysis_suite

    # Conflicting intent is a usage error, not a warning: a user who
    # asked for --resume or retries must not get a silently degraded
    # run (consistent with the --resume-without---cache-dir check).
    if args.trace:
        conflicts = [
            flag
            for flag, present in (
                ("--resume", args.resume),
                ("--retries", args.retries is not None),
                ("--retry-delay", args.retry_delay is not None),
                ("--timeout", args.timeout is not None),
                ("--ledger", args.ledger is not None),
                ("--profile-cells", args.profile_cells),
                ("--progress", args.progress),
            )
            if present
        ]
        if conflicts:
            obslog.warn(
                "--trace runs the sweep serially in-process and cannot "
                f"honour {', '.join(conflicts)}; drop --trace or the "
                "conflicting flag(s)"
            )
            return 2
    if args.plan:
        conflicts = [
            flag
            for flag, attribute, default in _SWEEP_GRID_FLAGS
            if getattr(args, attribute) != default
        ]
        if conflicts:
            obslog.warn(
                "--plan defines the grid; conflicting grid flags: "
                f"{', '.join(conflicts)}"
            )
            return 2
        plan = load_and_expand(args.plan)
        if not plan.cells:
            obslog.warn(
                f"plan {plan.name!r} expands to no grid cells (a "
                "figures-only plan?); run it with 'figures --plan'"
            )
            return 2
        grid = list(plan.cells)
        obslog.info(f"plan: {plan.name} expands to {len(grid)} cell(s)")
    else:
        available = [spec.name for spec in DACAPO]
        names = args.workloads or [spec.name for spec in analysis_suite()]
        unknown = [name for name in names if name not in available]
        if unknown:
            obslog.warn(f"unknown workloads: {', '.join(unknown)}")
            obslog.warn(f"available: {', '.join(available)}")
            return 2
        grid = [
            RunConfig(
                workload=name,
                heap_multiplier=heap,
                failure_model=FailureModel(rate=rate, hw_region_pages=args.clustering),
                immix_line=args.line,
                seed=seed,
                scale=args.scale,
                wear_policy=args.wear_policy,
                pool_policy=args.pool_policy,
                placement_policy=args.placement_policy,
            )
            for name in names
            for rate in args.rates
            for heap in args.heaps
            for seed in args.seeds
        ]
    if args.resume and (args.no_cache or not args.cache_dir):
        obslog.warn(
            "--resume replays completed cells from the persistent cache; "
            "pass --cache-dir (without --no-cache)"
        )
        return 2
    if args.trace:
        if ChaosConfig.from_env() is not None:
            # The explicit-flag conflicts already errored out above.
            obslog.warn(
                "--trace runs serially in-process; ignoring REPRO_CHAOS"
            )
        results, stats = _run_traced_sweep(args, grid)
        ledger = None
    else:
        cache = _build_cache(args)
        ledger, profile_dir = _build_sweep_recorder(args)
        results, stats = run_grid(
            grid,
            jobs=args.jobs,
            cache=cache,
            retry=_build_retry_policy(args),
            timeout_s=args.timeout,
            chaos=ChaosConfig.from_env(),
            ledger=ledger,
            profile_dir=profile_dir,
        )
        if ledger is not None and ledger.path:
            obslog.info(
                f"ledger: {ledger.path} (aggregate with 'repro report')"
            )
        if args.resume:
            obslog.info(
                f"resume: {stats.cache_hits} of {len(grid)} cell(s) "
                f"replayed from {args.cache_dir}"
            )
        if args.metrics_out:
            _write_metrics(_sweep_metrics_registry(stats), args.metrics_out)
    obslog.out(f"{'workload':13s} {'rate':>5s} {'heap':>5s} {'seed':>4s} "
               f"{'status':>7s} {'time(ms)':>10s}")
    for result in results:
        config = result.config
        status = "ok" if result.completed else "DNF"
        time_ms = f"{result.time_ms:10.1f}" if result.completed else f"{'-':>10s}"
        obslog.out(f"{config.workload:13s} {config.failure_model.rate:5.0%} "
                   f"{config.heap_multiplier:5.2g} {config.seed:4d} "
                   f"{status:>7s} {time_ms}")
    for cell in stats.fault_tolerance.quarantined:
        obslog.warn(
            f"quarantined: {cell.workload} {cell.description} after "
            f"{cell.attempts} attempt(s): {'; '.join(cell.failures)}"
        )
    payload = stats.to_dict()
    if ledger is not None:
        # Additive wall-clock block from the flight recorder; the
        # bit-identity CI jobs compare "results" only, so this never
        # perturbs them.
        events = read_ledger(ledger.path)[0] if ledger.path else ledger.events
        payload["wall_clock"] = aggregate(events, top=5)
    # Deterministic per-cell results (input order, quarantined cells
    # absent): this is the section the chaos-smoke CI job compares
    # between a disturbed and an undisturbed sweep.
    payload["results"] = [result_to_dict(result) for result in results]
    _write_sweep_artifact(args.out, payload)
    # Exit 3 = partial results: the sweep survived, but some cells
    # exhausted their retries and are missing from the artifact.
    return 3 if stats.fault_tolerance.quarantined else 0


def _run_traced_sweep(args, grid: List[RunConfig]):
    """Serial sweep with one tracer per cell and a shared registry.

    Worker processes and the disk cache cannot carry trace events, so
    the traced path runs every cell inline; the SweepStats record is
    assembled by hand to keep the BENCH_sweep.json artifact identical
    in shape to the untraced path.
    """
    from .obs.export import write_chrome_trace
    from .sim.parallel import CellTiming, SweepStats, _describe

    if args.jobs not in (0, 1):
        obslog.warn("--trace runs the sweep serially; ignoring --jobs")
    if args.cache_dir and not args.no_cache:
        obslog.warn("--trace disables the result cache for this run")
    os.makedirs(args.trace, exist_ok=True)
    registry = MetricsRegistry()
    stats = SweepStats(jobs=1, cells=len(grid))
    results = []
    started = time.perf_counter()
    for index, config in enumerate(grid):
        tracer = Tracer(metrics=registry)
        cell_start = time.perf_counter()
        result = run_benchmark(config, tracer=tracer)
        wall = time.perf_counter() - cell_start
        stats.busy_s += wall
        stats.timings.append(
            CellTiming(
                index=index,
                workload=config.workload,
                description=_describe(config),
                wall_s=wall,
                cached=False,
                completed=result.completed,
            )
        )
        path = os.path.join(args.trace, _trace_slug(config) + ".trace.json")
        write_chrome_trace(tracer, path, metadata=_trace_metadata(config, result))
        obslog.debug(f"trace: {path}")
        results.append(result)
    stats.wall_s = time.perf_counter() - started
    obslog.info(f"traces: {len(grid)} cell(s) in {args.trace}")
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    return results, stats


def cmd_report(args) -> int:
    from .obs.export import (
        LEDGER_CATEGORIES,
        validate_chrome_trace,
        write_ledger_chrome_trace,
    )

    try:
        events, problems = read_ledger(args.ledger)
    except OSError as exc:
        obslog.warn(f"report: cannot read {args.ledger}: {exc}")
        return 2
    for problem in problems:
        obslog.warn(f"ledger: {problem}")
    if not events:
        obslog.warn(f"report: {args.ledger} holds no events")
        return 1
    report = aggregate(events, top=args.top)
    hotspots: List[dict] = []
    if report["profiles"]:
        hotspots, profile_problems = merge_profiles(
            report["profiles"], top=args.top
        )
        for problem in profile_problems:
            obslog.warn(f"profile: {problem}")
    if args.trace_out:
        payload = write_ledger_chrome_trace(events, args.trace_out)
        for problem in validate_chrome_trace(payload, LEDGER_CATEGORIES):
            obslog.warn(f"trace: {problem}")
        obslog.info(
            f"wall-clock trace: {args.trace_out} "
            f"({len(report['workers'])} worker track(s))"
        )
    if args.json:
        payload = dict(report)
        payload["hotspots"] = hotspots
        payload["ledger_problems"] = problems
        print(json.dumps(payload, indent=2))
        return 0

    obslog.out(f"ledger        {args.ledger} ({len(events)} events)")
    obslog.out(
        f"cells         {report['cells']} ({report['executed']} executed, "
        f"{report['cache']['hits']} cached, "
        f"{len(report['quarantined'])} quarantined), "
        f"jobs {report['jobs']}"
    )
    if report["wall_s"] is not None:
        obslog.out(
            f"wall clock    {report['wall_s']:.2f}s measured, "
            f"{report['accounted_s']:.2f}s accounted, "
            f"coverage {report['coverage']:.1%}"
        )
    else:
        obslog.out(
            "wall clock    unbounded ledger (no sweep_begin/sweep_end "
            "pair); phase totals only"
        )
    obslog.out("phase breakdown (wall seconds)")
    accounted = report["accounted_s"] or 1.0
    for phase, seconds in report["phases"].items():
        obslog.out(f"  {phase:12s} {seconds:10.3f}s {seconds / accounted:7.1%}")
    hit_rate = report["cache"]["hit_rate"]
    obslog.out(
        f"cache         {report['cache']['hits']} hit(s), "
        f"{report['cache']['misses']} miss(es)"
        + (f", hit rate {hit_rate:.0%}" if hit_rate is not None else "")
    )
    obslog.out(
        f"faults        {report['retries']} retried, "
        f"{len(report['quarantined'])} quarantined, "
        f"waste {report['waste_s']:.2f}s"
    )
    obslog.out(f"workers       {len(report['workers'])} process(es)")
    if report["slowest_cells"]:
        obslog.out(f"slowest cells (top {len(report['slowest_cells'])})")
        for cell in report["slowest_cells"]:
            obslog.out(
                f"  cell {cell['cell']:4d} {cell['workload'] or '?':13s} "
                f"{cell['wall_s']:8.3f}s {cell['attempts']} attempt(s) "
                f"{cell['outcome']}"
            )
    if hotspots:
        obslog.out(
            f"hotspots (merged from {len(report['profiles'])} "
            "profile spool(s))"
        )
        for line in render_hotspots(hotspots):
            obslog.out("  " + line)
    return 0


def cmd_bench(args) -> int:
    registry = None
    tracer = None
    if args.trace or args.metrics_out:
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
    checkpoint = None
    if args.checkpoint_every > 0:
        checkpoint = CheckpointPolicy(
            args.checkpoint, every_steps=args.checkpoint_every
        )
    if args.resume_from:
        # The snapshot carries the RunConfig; flags describing the run
        # shape are ignored so the continuation cannot diverge.
        if args.verify_heap:
            obslog.warn("--verify-heap does not apply when resuming; ignored")
        result = resume_benchmark(
            args.resume_from, tracer=tracer, checkpoint=checkpoint
        )
        config = result.config
    else:
        config = RunConfig(
            workload=args.workload,
            heap_multiplier=args.heap,
            collector=args.collector,
            failure_model=FailureModel(
                rate=args.rate, hw_region_pages=args.clustering
            ),
            immix_line=args.line,
            compensate=not args.no_compensate,
            arraylets=args.arraylets,
            seed=args.seed,
            scale=args.scale,
            wear_policy=args.wear_policy,
            pool_policy=args.pool_policy,
            placement_policy=args.placement_policy,
        )
        result = run_benchmark(
            config, verify=args.verify_heap, tracer=tracer, checkpoint=checkpoint
        )
    # The baseline exists only for the slowdown ratio; it is never
    # traced, so the trace holds exactly the measured run's events.
    baseline = run_benchmark(
        replace(config, failure_model=FailureModel(), compensate=True)
    )
    obslog.out(f"workload      {config.workload}")
    obslog.out(f"configuration {config.failure_model.describe()}, "
               f"L{config.immix_line}, {config.collector}, "
               f"heap {config.heap_multiplier:g}x min")
    obslog.out(f"status        {'completed' if result.completed else 'DNF: ' + result.failure_note}")
    if result.completed:
        obslog.out(f"time          {result.time_ms:.1f} simulated ms "
                   f"({result.time_units / baseline.time_units:.3f}x the no-failure run)")
    interesting = (
        "collections", "full_collections", "run_advances", "block_requests",
        "overflow_allocs", "perfect_block_requests", "objects_copied",
    )
    for key in interesting:
        obslog.out(f"  {key:24s} {result.stats[key]}")
    obslog.out(f"  {'perfect_page_demand':24s} {result.perfect_page_demand}")
    obslog.out(f"  {'borrowed_pages':24s} {result.borrowed_pages}")
    if result.phase_breakdown:
        for line in _render_phase_breakdown(
            result.phase_breakdown, result.time_units
        ):
            obslog.out(line)
    if checkpoint is not None and checkpoint.emitted:
        obslog.info(
            f"checkpoints: {checkpoint.emitted} snapshot(s), last at "
            f"{args.checkpoint} (resume with --resume-from)"
        )
    if args.trace:
        from .obs.export import validate_chrome_trace, write_chrome_trace

        payload = write_chrome_trace(
            tracer, args.trace, metadata=_trace_metadata(config, result)
        )
        for problem in validate_chrome_trace(payload):
            obslog.warn(f"trace: {problem}")
        obslog.info(
            f"trace: {args.trace} ({tracer.recorded} events, "
            f"{tracer.dropped} dropped)"
        )
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    return 0 if result.completed else 1


def cmd_trace(args) -> int:
    from .obs.export import validate_chrome_trace, write_chrome_trace, write_jsonl

    available = [spec.name for spec in DACAPO]
    if args.workload not in available:
        obslog.warn(f"unknown workload: {args.workload}")
        obslog.warn(f"available: {', '.join(available)}")
        return 2
    registry = MetricsRegistry()
    tracer = Tracer(capacity=args.buffer, metrics=registry)
    config = RunConfig(
        workload=args.workload,
        heap_multiplier=args.heap,
        collector=args.collector,
        failure_model=FailureModel(rate=args.rate, hw_region_pages=args.clustering),
        immix_line=args.line,
        seed=args.seed,
        scale=args.scale,
        wear_policy=args.wear_policy,
        pool_policy=args.pool_policy,
        placement_policy=args.placement_policy,
    )
    if args.wear > 0:
        result = run_wearing_benchmark(config, mean_writes=args.wear, tracer=tracer)
    else:
        result = run_benchmark(config, tracer=tracer)
    metadata = _trace_metadata(config, result)
    metadata["wear_mean_writes"] = args.wear
    payload = write_chrome_trace(tracer, args.out, metadata=metadata)
    problems = validate_chrome_trace(payload)
    for problem in problems:
        obslog.warn(f"trace: {problem}")
    if args.jsonl:
        count = write_jsonl(tracer, args.jsonl)
        obslog.info(f"jsonl: {args.jsonl} ({count} events)")
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)

    categories = sorted({event.cat for event in tracer.events()})
    status = "completed" if result.completed else f"DNF: {result.failure_note}"
    obslog.out(f"workload      {args.workload} ({status})")
    obslog.out(f"trace         {args.out} ({tracer.recorded} events recorded, "
               f"{tracer.dropped} dropped, layers: {', '.join(categories)})")
    obslog.out(f"collections   {result.stats['collections']} "
               f"({result.stats['dynamic_failure_collections']} failure-forced, "
               f"{result.stats['dynamic_failed_lines']} lines failed dynamically)")
    if result.phase_breakdown:
        for line in _render_phase_breakdown(
            result.phase_breakdown, result.time_units
        ):
            obslog.out(line)
    obslog.info("open in Perfetto: https://ui.perfetto.dev -> Open trace file")
    return 0 if result.completed and not problems else 1


def cmd_check(args) -> int:
    from .check import run_campaign
    from .workloads.dacapo import DACAPO

    if args.workloads:
        available = [spec.name for spec in DACAPO]
        unknown = [name for name in args.workloads if name not in available]
        if unknown:
            obslog.warn(f"unknown workloads: {', '.join(unknown)}")
            obslog.warn(f"available: {', '.join(available)}")
            return 2
    result = run_campaign(
        seed=args.seed,
        workloads=args.workloads,
        scale=args.scale,
        level=args.level,
    )
    obslog.out(result.render())
    return 0 if result.ok else 1


def cmd_lifetime(args) -> int:
    import dataclasses

    from .hardware.wear_leveling import StartGapWearLeveler
    from .sim.lifetime import (
        retire_on_first_failure_lifetime,
        run_lifetime,
        write_heavy,
    )
    from .workloads.dacapo import workload

    spec = write_heavy(workload(args.workload), mutations_per_object=2.0)
    spec = dataclasses.replace(
        spec, total_alloc_bytes=min(spec.total_alloc_bytes, 1_500_000)
    )
    checkpoint = None
    if args.checkpoint_every > 0:
        checkpoint = CheckpointPolicy(
            args.checkpoint, every_steps=args.checkpoint_every
        )
    if args.strategy == "retire":
        if checkpoint is not None or args.resume:
            obslog.warn(
                "--checkpoint-every/--resume apply to the failure-aware "
                "strategies only, not 'retire'"
            )
            return 2
        result = retire_on_first_failure_lifetime(
            spec, max_iterations=args.iterations, endurance_mean_writes=args.endurance
        )
    else:
        result = run_lifetime(
            spec,
            clustering=args.strategy == "clustered",
            wear_leveler=(
                StartGapWearLeveler(gap_write_interval=20)
                if args.strategy == "start-gap"
                else None
            ),
            max_iterations=args.iterations,
            endurance_mean_writes=args.endurance,
            checkpoint=checkpoint,
            resume_from=args.resume,
        )
    if checkpoint is not None and checkpoint.emitted:
        obslog.info(
            f"checkpoints: {checkpoint.emitted} snapshot(s), last at "
            f"{args.checkpoint} (resume with --resume)"
        )
    obslog.out(result.describe())
    for record in result.records:
        bar = "#" * int(50 * record.failed_fraction)
        status = "ok " if record.completed else "DNF"
        obslog.out(f"  iter {record.iteration:2d} {status} "
                   f"{record.failed_fraction:6.1%} {bar}")
    return 0


def cmd_serve(args) -> int:
    from .serve.server import ExperimentService

    cache = _build_cache(args)
    if cache is None:
        obslog.warn(
            "serve: no --cache-dir; cross-client dedup is limited to jobs "
            "sharing this process lifetime (results are not persisted)"
        )
    service = ExperimentService(
        host=args.host,
        port=args.port,
        cache=cache,
        jobs=args.jobs,
        retry=_build_retry_policy(args),
        timeout_s=args.timeout,
    )
    host, port = service.address
    obslog.info(f"serve: listening on http://{host}:{port}")
    obslog.info(
        "serve: POST /jobs | GET /jobs/<id> | GET /jobs/<id>/artifact | "
        "GET /healthz | GET /metrics"
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        obslog.info("serve: interrupted, draining")
    finally:
        service.shutdown()
    return 0


def cmd_workloads(_args) -> int:
    for spec in DACAPO:
        obslog.out(f"{spec.name:13s} {spec.describe()}")
        obslog.out(f"{'':13s} {spec.description}")
    return 0


def cmd_plan(args) -> int:
    plan = load_and_expand(args.file)
    cache = None
    if args.dry_run and args.cache_dir and not args.no_cache:
        cache = ResultCache(args.cache_dir)
    if args.dry_run:
        if args.json:
            print(json.dumps(dry_run_payload(plan, cache), indent=2))
        else:
            obslog.out(render_dry_run(plan, cache))
        return 0
    # Precheck-only invocation: the plan compiled cleanly (load_and_expand
    # raised PlanError otherwise), so report the summary and exit 0.
    obslog.out(f"plan: {plan.name}  [{plan.source}]")
    if plan.description:
        obslog.out(f"  {plan.description}")
    for axis, size in plan.axes.items():
        obslog.out(f"  axis {axis}: {size} value(s)")
    obslog.out(f"  cells: {len(plan.cells)}")
    if plan.figures:
        obslog.out(f"  figures: {', '.join(plan.figures)}")
    obslog.out(
        "precheck OK; preview with --dry-run, execute with "
        "'sweep --plan' or 'figures --plan'"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obslog.setup(-1 if args.quiet else args.verbose)
    handlers = {
        "figures": cmd_figures,
        "sweep": cmd_sweep,
        "bench": cmd_bench,
        "trace": cmd_trace,
        "check": cmd_check,
        "lifetime": cmd_lifetime,
        "workloads": cmd_workloads,
        "plan": cmd_plan,
        "report": cmd_report,
        "serve": cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except PlanError as exc:
        # A plan that fails its precheck is a usage error; report every
        # problem (the precheck collects all of them), not a traceback.
        for problem in exc.problems:
            obslog.warn(f"plan: {problem.where}: {problem.message}")
        return 2
    except SnapshotError as exc:
        # Unreadable/corrupt/stale checkpoint files are usage errors
        # (bad --resume-from path, snapshot from edited sources), not
        # crashes worth a traceback.
        obslog.warn(f"snapshot: {exc}")
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (head).
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
