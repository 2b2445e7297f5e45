"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``    regenerate one or more of the paper's figures
``sweep``      run a (workload x rate x heap) grid, in parallel
``plan``       precheck / dry-run a declarative experiment plan
``report``     aggregate a sweep flight-recorder ledger
``bench``      run one workload at one configuration and dump counters
``check``      run a randomized fault-injection audit campaign
``lifetime``   age a PCM module under a wear-management strategy
``workloads``  list the synthetic DaCapo-style workloads

Every grid takes one route. It is an **experiment plan** (YAML/JSON
with Cartesian sweep expansion; see :mod:`repro.sim.plan` and
``plans/``) — ``sweep``'s grid flags compile to one and take the same
precheck, so a bad value exits 2 — and its cells run through
:func:`repro.sim.parallel.run_grid`, traced or not. ``repro plan
FILE`` prechecks a plan file, ``repro plan FILE --dry-run`` renders
the expanded cell list (with estimated cache hits against
``--cache-dir``) without executing anything, and ``sweep --plan
FILE`` / ``figures --plan FILE`` execute one. The same grid gives a
bit-identical ``results`` section whichever way it is spelled.

The ``figures`` and ``sweep`` commands accept ``--jobs`` (fan the grid
out over worker processes; results are bit-identical to serial) and
``--cache-dir`` (persist completed cells on disk so re-runs are nearly
free). ``sweep`` additionally writes a ``BENCH_sweep.json`` artifact
with per-cell wall times, cache hit/miss counts, worker utilization,
and a deterministic ``results`` section; ``figures --sweep-json PATH``
writes the same document for the figures' grids, which run through
``run_grid`` exactly as a sweep's cells do.

Sweeps are fault tolerant and resumable: parallel cells run on
persistent workers that replace a crashed or hung worker, a cell that
fails is quarantined (exit code 3, partial artifact) instead of
aborting the sweep, and ``--retries``/``--timeout`` give each cell
more attempts (with backoff) and a wall-time budget. ``sweep
--resume`` restarts a killed sweep against the same ``--cache-dir``:
completed cells replay from the cache and only the remainder
re-executes. A ``lifetime`` study runs in seconds and is not
checkpointed: rerun it, and it prints the same bytes.

Output streams follow one convention (see :mod:`repro.obs.log`):
stdout carries primary output — human reports (suppressed by ``-q``)
and machine-readable JSON (never suppressed) — while stderr carries
narration. ``figures``, ``sweep`` and ``bench`` accept ``--trace`` to
record Chrome traces of the runs they execute (a traced grid takes
``run_grid``'s in-process, uncached route). ``bench --wear WRITES``
runs its cell on a *wearing* module, so dynamic failures arrive
mid-run and the hardware failure path is hot.

Every command checks a run-shape flag with the plan cell checker of
its field, so it accepts exactly what a plan cell does; a bad value
exits 2 with one line, ``<command>: --<flag>: <message>``. ``sweep``
and ``figures`` check ``--retries``, ``--retry-delay`` and
``--timeout`` the same way, before any cell runs.

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
    python -m repro bench luindex --scale 0.1 --clustering 2 --wear 25 \
        --trace trace.json
    python -m repro check --seed 0
    python -m repro lifetime --strategy retire --iterations 10
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from .check.audit import VERIFY_LEVELS
from .errors import CellsQuarantinedError, ConfigError, PlanError
from .faults.generator import FailureModel
from .ioutil import atomic_write_json
from .obs import log as obslog
from .obs.ledger import SweepLedger, SweepProgress, aggregate, read_ledger
from .obs.profile import merge_profiles, render_hotspots
from .obs.trace import DEFAULT_CAPACITY, Tracer
from .sim.cache import ResultCache
from .sim.chaos import ChaosConfig
from .sim.experiment import ExperimentRunner
from .sim.ftexec import RetryPolicy
from .sim.lifetime import STRATEGIES as LIFETIME_STRATEGIES
from .sim.machine import run_benchmark, run_wearing_benchmark
from .sim.parallel import run_grid, sweep_artifact
from .sim.plan import (
    CELL_FIELDS,
    PLAN_SCHEMA,
    cell_to_config,
    compensation_problem,
    dry_run_payload,
    expand,
    load_and_expand,
    render_dry_run,
)
from .sim.tracing import TraceDirectory, trace_metadata
from .workloads.dacapo import DACAPO

#: figure name -> callable(runner, scale) -> list of FigureResult
_FIGURES = {}


#: ``sweep``'s single-valued grid flags, which become plan defaults.
_SWEEP_FIXED_FLAGS = (
    "clustering", "line", "scale", "wear_policy", "pool_policy", "placement_policy",
)

#: The parser defaults of ``sweep``'s grid flags, by argparse attribute:
#: the plan's own built-in defaults except for the workload and rate
#: axes. The ``--plan`` conflict check compares against these too.
_SWEEP_GRID_DEFAULTS = {
    "workloads": None,  # the analysis suite
    "rates": [0.0, 0.10, 0.25, 0.50],
    "heaps": [CELL_FIELDS["heap"][1]],
    "seeds": [CELL_FIELDS["seed"][1]],
    **{name: CELL_FIELDS[name][1] for name in _SWEEP_FIXED_FLAGS},
}

#: ``sweep``'s grid flags -> the plan cell field each sets.
_SWEEP_FIELDS = {
    "--workloads": "workload",
    "--rates": "rate",
    "--heaps": "heap",
    "--seeds": "seed",
    **{"--" + name.replace("_", "-"): name for name in _SWEEP_FIXED_FLAGS},
}

#: ``bench``'s run-shape arguments -> the plan cell field each sets.
_BENCH_FIELDS = {
    "workload": "workload",
    "--rate": "rate",
    "--heap": "heap",
    "--line": "line",
    "--collector": "collector",
    "--clustering": "clustering",
    "--seed": "seed",
    "--scale": "scale",
    "--wear-policy": "wear_policy",
    "--pool-policy": "pool_policy",
    "--placement-policy": "placement_policy",
}

#: The parser defaults of what ``figures --plan`` takes from the plan.
_FIGURES_PLAN_DEFAULTS = {
    "names": ["headline"],
    "scale": CELL_FIELDS["scale"][1],
    "seeds": [CELL_FIELDS["seed"][1]],
}


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
        default=_FIGURES_PLAN_DEFAULTS["names"],
        help="figure ids (fig3..fig10, pauses, headline, or 'all')",
    )
    figures.add_argument("--scale", type=float, default=_FIGURES_PLAN_DEFAULTS["scale"])
    figures.add_argument(
        "--seeds", type=int, nargs="+", default=_FIGURES_PLAN_DEFAULTS["seeds"]
    )
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
        "figure grid to PATH (aggregate with 'repro report')",
    )

    sweep = sub.add_parser(
        "sweep", help="run a (workload x rate x heap) grid in parallel"
    )
    grid = _SWEEP_GRID_DEFAULTS
    sweep.add_argument(
        "--workloads", nargs="+", default=grid["workloads"], metavar="NAME",
        help="workload subset (default: analysis suite)",
    )
    sweep.add_argument("--rates", type=float, nargs="+", default=grid["rates"])
    sweep.add_argument("--heaps", type=float, nargs="+", default=grid["heaps"])
    sweep.add_argument(
        "--clustering", type=int, default=grid["clustering"], metavar="PAGES"
    )
    sweep.add_argument("--line", type=int, default=grid["line"], choices=[64, 128, 256])
    sweep.add_argument("--seeds", type=int, nargs="+", default=grid["seeds"])
    sweep.add_argument("--scale", type=float, default=grid["scale"])
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
    _add_observability_arguments(bench, directory=False)
    bench.add_argument(
        "--wear",
        type=float,
        default=0.0,
        metavar="WRITES",
        help="mean line endurance in writes; the run wears the module so "
        "dynamic failures arrive mid-run (default: %(default)s = aged "
        "module, static failures only)",
    )
    bench.add_argument(
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
        choices=LIFETIME_STRATEGIES,
    )
    lifetime.add_argument("--workload", default="avrora")
    lifetime.add_argument("--iterations", type=int, default=12)
    lifetime.add_argument("--endurance", type=float, default=40.0)

    sub.add_parser("workloads", help="list workloads")
    return parser


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    """The three policy seams (see repro.policies); defaults = paper."""
    from .policies import PLACEMENT_POLICIES, POOL_POLICIES, WEAR_POLICIES

    parser.add_argument(
        "--wear-policy",
        default=CELL_FIELDS["wear_policy"][1],
        choices=sorted(WEAR_POLICIES),
        help="hardware wear-leveling policy (default: %(default)s, "
        "the paper's design)",
    )
    parser.add_argument(
        "--pool-policy",
        default=CELL_FIELDS["pool_policy"][1],
        choices=sorted(POOL_POLICIES),
        help="OS page-pool supply/migration policy (default: %(default)s)",
    )
    parser.add_argument(
        "--placement-policy",
        default=CELL_FIELDS["placement_policy"][1],
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


def _fault_tolerance_problems(args) -> tuple:
    """``_usage_errors`` checks of the retry/timeout flags."""
    retries, delay, timeout = args.retries, args.retry_delay, args.timeout
    return (
        retries is not None
        and retries < 1
        and f"--retries must be >= 1 attempt, got {retries}",
        delay is not None
        and not 0 <= delay < math.inf
        and f"--retry-delay must be a finite number of seconds >= 0, got {delay}",
        timeout is not None
        and not 0 < timeout < math.inf
        and f"--timeout must be a finite number of seconds > 0, got {timeout}",
    )


def _add_observability_arguments(
    parser: argparse.ArgumentParser, directory: bool
) -> None:
    """The shared ``--trace`` knob.

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


#: What ``--trace`` cannot honour, by argparse attribute.
_TRACE_CONFLICTS = (
    "resume", "retries", "retry_delay", "timeout", "ledger", "profile_cells",
)


def _trace_conflicts(args, *extra: str) -> bool:
    """Warn and return True (exit 2) when ``--trace`` meets a flag it
    cannot honour: a traced grid runs in-process and uncached, with no
    retry, timeout, resume or fan-out to record. ``extra`` adds a
    command's own attributes. Conflicting intent is a usage error, so a
    user who asked for retries never gets a silently degraded run."""
    if not args.trace:
        return False
    conflicts = [
        "--" + attribute.replace("_", "-")
        for attribute in _TRACE_CONFLICTS + extra
        if getattr(args, attribute, None) not in (None, False)
    ]
    if conflicts:
        obslog.warn(
            "--trace runs cells serially in-process and cannot honour "
            f"{', '.join(conflicts)}; drop --trace or the conflicting "
            "flag(s)"
        )
    return bool(conflicts)


def _quarantine_exit(stats) -> int:
    """Warn about each quarantined cell; exit 3 (partial results: the
    cells that exhausted their retries are missing) if any, else 0."""
    for cell in stats.fault_tolerance.quarantined:
        obslog.warn(
            f"quarantined: {cell.workload} {cell.description} after "
            f"{cell.attempts} attempt(s): {'; '.join(cell.failures)}"
        )
    return 3 if stats.fault_tolerance.quarantined else 0


def _trace_directory(args) -> TraceDirectory:
    """A grid command's ``--trace DIR``. The caller then runs every cell
    in-process and uncached; this warns about what that overrides."""
    if args.jobs not in (0, 1):
        obslog.warn("--trace runs cells serially; ignoring --jobs")
    if args.cache_dir and not args.no_cache:
        obslog.warn("--trace disables the result cache for this run")
    if ChaosConfig.from_env() is not None:
        obslog.warn("--trace runs cells in-process; ignoring REPRO_CHAOS")
    return TraceDirectory(args.trace)


def _attribute(flag: str) -> str:
    """The argparse attribute of a flag spelling: ``--wear-policy`` ->
    ``wear_policy``."""
    return flag.lstrip("-").replace("-", "_")


def _usage_errors(
    command: str, args, fields: Dict[str, str], *own_problems
) -> bool:
    """Warn one line per refused argument and return True (exit 2) if
    any was refused.

    ``fields`` maps each run-shape flag to its plan cell field, whose
    :data:`CELL_FIELDS` checker judges the flag's value (each value of
    a list; an unset flag is not checked), so a command accepts what a
    plan cell does. ``own_problems`` are the command's checks of flags
    no cell field covers: a message, or a false value for none.
    """
    problems = []
    for flag, field in fields.items():
        values = getattr(args, _attribute(flag))
        for value in values if isinstance(values, list) else [values]:
            error = None if value is None else CELL_FIELDS[field][0](value)
            if error:
                problems.append(f"{flag}: {error}")
                break
    problems += [problem for problem in own_problems if problem]
    for problem in problems:
        obslog.warn(f"{command}: {problem}")
    return bool(problems)


def cmd_figures(args) -> int:
    _register_figures()
    names = list(args.names)
    scale = args.scale
    seeds = list(args.seeds)
    if _usage_errors(
        "figures",
        args,
        # The plan precheck's checkers: both spellings accept the same.
        {} if args.plan else {"--scale": "scale", "--seeds": "seed"},
        *_fault_tolerance_problems(args),
    ):
        return 2
    if args.plan:
        conflicts = [
            "explicit figure names" if attribute == "names" else "--" + attribute
            for attribute, default in _FIGURES_PLAN_DEFAULTS.items()
            if getattr(args, attribute) != default
        ]
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
    if _trace_conflicts(args):
        return 2
    progress = (lambda m: obslog.info(f"  .. {m}")) if args.progress else None
    tracing = _trace_directory(args) if args.trace else None
    cache = None if tracing is not None else _build_cache(args)
    jobs = 1 if tracing is not None else args.jobs
    # Only an armed REPRO_CHAOS gets past the conflict check to arm
    # retries under --trace; _trace_directory warned that it is ignored.
    retry = None if tracing is not None else _build_retry_policy(args)
    ledger = SweepLedger(args.ledger) if args.ledger else None
    runner = ExperimentRunner(
        seeds=tuple(seeds),
        progress=progress,
        cache=cache,
        jobs=jobs,
        tracing=tracing,
        retry=retry,
        timeout_s=args.timeout,
        ledger=ledger,
    )
    try:
        if args.json:
            payload = {
                name: [figure.to_dict() for figure in _FIGURES[name](runner, scale)]
                for name in names
            }
            print(json.dumps(payload, indent=2))
        else:
            for name in names:
                for result in _FIGURES[name](runner, scale):
                    obslog.out(result.render())
                    obslog.out()
    except CellsQuarantinedError as exc:
        # A figure cannot aggregate over a missing cell: stop rendering
        # and report the grid as partial, as `sweep` does.
        obslog.warn(f"figures: {exc}; rendering stopped")
    if cache is not None:
        counters = cache.counters()
        obslog.info(
            f"cache: {counters['hits']} hits, {counters['misses']} misses, "
            f"{counters['stores']} stores ({args.cache_dir})"
        )
    if ledger is not None and ledger.path:
        obslog.info(
            f"ledger: {ledger.path} ({len(ledger.events)} parent events; "
            "aggregate with 'repro report')"
        )
    if args.sweep_json:
        _write_sweep_artifact(
            args.sweep_json, sweep_artifact(runner.results, runner.stats, ledger)
        )
    return _quarantine_exit(runner.stats)


def _sweep_flags_plan(args) -> dict:
    """The ``repro.plan/1`` document ``sweep``'s grid flags spell."""
    from .workloads.dacapo import analysis_suite

    workloads = args.workloads or [spec.name for spec in analysis_suite()]
    return {
        "plan": PLAN_SCHEMA,
        "name": "sweep",
        "defaults": {name: getattr(args, name) for name in _SWEEP_FIXED_FLAGS},
        # First axis outermost: workload x rate x heap x seed.
        "axes": {
            "workload": workloads,
            "rate": args.rates,
            "heap": args.heaps,
            "seed": args.seeds,
        },
    }


def _compensation_flag_problem(flag: str, rates, compensate: bool):
    """The plan's rate-versus-compensation check, for a rate flag."""
    for rate in rates:
        problem = compensation_problem(rate, compensate)
        if problem:
            return f"{flag}: {problem}"
    return None


def cmd_sweep(args) -> int:
    if _usage_errors(
        "sweep",
        args,
        {} if args.plan else _SWEEP_FIELDS,
        *_fault_tolerance_problems(args),
        # The flag grid compensates every cell.
        not args.plan and _compensation_flag_problem("--rates", args.rates, True),
    ):
        return 2
    # sweep's --progress is a flight-recorder listener.
    if _trace_conflicts(args, "progress"):
        return 2
    if args.plan:
        conflicts = [
            "--" + attribute.replace("_", "-")
            for attribute, default in _SWEEP_GRID_DEFAULTS.items()
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
        obslog.info(f"plan: {plan.name} expands to {len(plan.cells)} cell(s)")
    else:
        # The flags passed their cell checkers; compiling them adds the
        # rest of the plan precheck (a duplicate cell exits 2).
        plan = expand(_sweep_flags_plan(args), source="<sweep flags>")
    grid = plan.cells
    if args.resume and (args.no_cache or not args.cache_dir):
        obslog.warn(
            "--resume replays completed cells from the persistent cache; "
            "pass --cache-dir (without --no-cache)"
        )
        return 2
    if args.trace:
        ledger = None
        results, stats = run_grid(grid, tracing=_trace_directory(args))
        obslog.info(f"traces: {len(grid)} cell(s) in {args.trace}")
    else:
        ledger, profile_dir = _build_sweep_recorder(args)
        results, stats = run_grid(
            grid,
            jobs=args.jobs,
            cache=_build_cache(args),
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
    obslog.out(f"{'workload':13s} {'rate':>5s} {'heap':>5s} {'seed':>4s} "
               f"{'status':>7s} {'time(ms)':>10s}")
    for result in results:
        config = result.config
        status = "ok" if result.completed else "DNF"
        time_ms = f"{result.time_ms:10.1f}" if result.completed else f"{'-':>10s}"
        obslog.out(f"{config.workload:13s} {config.failure_model.rate:5.0%} "
                   f"{config.heap_multiplier:5.2g} {config.seed:4d} "
                   f"{status:>7s} {time_ms}")
    _write_sweep_artifact(args.out, sweep_artifact(results, stats, ledger))
    return _quarantine_exit(stats)


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
    if _usage_errors(
        "bench",
        args,
        _BENCH_FIELDS,
        args.buffer < 1 and f"--buffer must be >= 1 event, got {args.buffer}",
        not 0 <= args.wear < math.inf
        and f"--wear must be >= 0 writes (0 = aged module), got {args.wear}",
        _compensation_flag_problem("--rate", [args.rate], not args.no_compensate),
    ):
        return 2
    tracer = Tracer(capacity=args.buffer) if args.trace else None
    cell = {name: default for name, (_, default) in CELL_FIELDS.items()}
    cell.update(
        {field: getattr(args, _attribute(flag)) for flag, field in _BENCH_FIELDS.items()},
        compensate=not args.no_compensate,
        arraylets=args.arraylets,
    )
    config = cell_to_config(cell)
    # Static failures come from an aged module; --wear adds the dynamic
    # ones (failure buffer, OS upcall, evacuation).
    if args.wear > 0:
        result = run_wearing_benchmark(
            config, args.wear, verify=args.verify_heap, tracer=tracer
        )
    else:
        result = run_benchmark(config, verify=args.verify_heap, tracer=tracer)
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
    if result.stats["dynamic_failed_lines"]:
        obslog.out(
            f"  {'dynamic_failed_lines':24s} {result.stats['dynamic_failed_lines']} "
            f"({result.stats['dynamic_failure_collections']} failure-forced "
            "collections)"
        )
    obslog.out(f"  {'perfect_page_demand':24s} {result.perfect_page_demand}")
    obslog.out(f"  {'borrowed_pages':24s} {result.borrowed_pages}")
    if result.phase_breakdown:
        for line in _render_phase_breakdown(
            result.phase_breakdown, result.time_units
        ):
            obslog.out(line)
    if args.trace:
        from .obs.export import validate_chrome_trace, write_chrome_trace

        metadata = trace_metadata(config, result)
        if args.wear > 0:
            metadata["wear_mean_writes"] = args.wear
        payload = write_chrome_trace(tracer, args.trace, metadata=metadata)
        for problem in validate_chrome_trace(payload):
            obslog.warn(f"trace: {problem}")
        obslog.info(
            f"trace: {args.trace} ({tracer.recorded} events, "
            f"{tracer.dropped} dropped)"
        )
    return 0 if result.completed else 1


def cmd_check(args) -> int:
    from .check import run_campaign

    if _usage_errors(
        "check",
        args,
        {"--seed": "seed", "--scale": "scale", "--workloads": "workload"},
    ):
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

    from .sim.lifetime import run_strategy, write_heavy
    from .workloads.dacapo import workload

    if _usage_errors(
        "lifetime",
        args,
        {"--workload": "workload"},
        args.iterations < 1 and f"--iterations must be >= 1, got {args.iterations}",
        not 0 < args.endurance < math.inf
        and f"--endurance must be a positive number of writes, got {args.endurance}",
    ):
        return 2
    spec = write_heavy(workload(args.workload), mutations_per_object=2.0)
    spec = dataclasses.replace(
        spec, total_alloc_bytes=min(spec.total_alloc_bytes, 1_500_000)
    )
    result = run_strategy(
        spec,
        args.strategy,
        max_iterations=args.iterations,
        endurance_mean_writes=args.endurance,
    )
    obslog.out(result.describe())
    for record in result.records:
        bar = "#" * int(50 * record.failed_fraction)
        status = "ok " if record.completed else "DNF"
        obslog.out(f"  iter {record.iteration:2d} {status} "
                   f"{record.failed_fraction:6.1%} {bar}")
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
        "check": cmd_check,
        "lifetime": cmd_lifetime,
        "workloads": cmd_workloads,
        "plan": cmd_plan,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except PlanError as exc:
        # A plan that fails its precheck is a usage error; report every
        # problem (the precheck collects all of them), not a traceback.
        for problem in exc.problems:
            obslog.warn(f"plan: {problem.where}: {problem.message}")
        return 2
    except ConfigError as exc:
        # A bad value the flags let through (say, --retries 0) is a
        # usage error too. Simulation outcomes (out of memory and its
        # kin) are not ConfigErrors and keep their tracebacks.
        obslog.warn(f"{args.command}: {exc}")
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (head).
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
