"""Per-cell Chrome traces of a grid run.

:func:`~repro.sim.parallel.run_grid` and
:class:`~repro.sim.experiment.ExperimentRunner` ask a
:class:`TraceDirectory` for a tracer before each cell and hand it back
afterwards. Tracers cross no process boundary and cached results carry
no events, so a traced grid runs every cell in-process and uncached.
"""

from __future__ import annotations

import os
from ..obs.export import write_chrome_trace
from ..obs.trace import Tracer
from .machine import RunConfig, RunResult
from .plan import cell_slug


def trace_metadata(config: RunConfig, result: RunResult) -> dict:
    """The ``otherData`` block of one run's Chrome trace."""
    return {
        "workload": config.workload,
        "collector": config.collector,
        "rate": config.failure_model.rate,
        "heap_multiplier": config.heap_multiplier,
        "immix_line": config.immix_line,
        "seed": config.seed,
        "scale": config.scale,
        "completed": result.completed,
        "time_units": result.time_units,
        "dynamic_failed_lines": result.stats.get("dynamic_failed_lines", 0),
    }


class TraceDirectory:
    """``<path>/<cell_slug>.trace.json`` per executed cell."""

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(path, exist_ok=True)

    def tracer(self) -> Tracer:
        return Tracer()

    def write(self, config: RunConfig, tracer: Tracer, result: RunResult) -> None:
        """Export one finished cell's trace."""
        path = os.path.join(self.path, cell_slug(config) + ".trace.json")
        write_chrome_trace(tracer, path, metadata=trace_metadata(config, result))
