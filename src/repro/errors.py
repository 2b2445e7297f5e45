"""Exception hierarchy for the wearable-memory simulator."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value."""


class GeometryError(ConfigError):
    """Line/page/block/region sizes that do not fit together."""


class OutOfMemoryError(ReproError):
    """The heap cannot satisfy an allocation even after collection."""


class PerfectMemoryExhaustedError(OutOfMemoryError):
    """A fussy (page-grained) request found no perfect page and no DRAM."""


class FailureBufferOverflowError(ReproError):
    """The hardware failure buffer filled before the OS drained it."""


class AddressError(ReproError):
    """An address outside the mapped space, or misaligned for its use."""


class ProtocolError(ReproError):
    """The OS/runtime cooperation protocol was violated.

    Examples: a runtime using imperfect memory without registering a
    dynamic-failure handler, or acknowledging a failure it never received.
    """


class PinnedObjectError(ReproError):
    """An operation tried to move a pinned object."""


class PlanError(ConfigError):
    """An experiment plan failed its precheck.

    Raised by :mod:`repro.sim.plan` when a declarative plan file cannot
    be compiled into a run grid: unknown keys or workloads, type/range
    violations, placeholder typos, empty axes, or duplicate cells. The
    ``problems`` attribute carries every
    :class:`repro.sim.plan.PlanProblem` found — the precheck reports
    all of them before any cell runs, never just the first.
    """

    def __init__(self, problems) -> None:
        self.problems = list(problems)
        lines = [f"{p.where}: {p.message}" for p in self.problems]
        super().__init__(
            "experiment plan failed precheck:\n  " + "\n  ".join(lines)
        )


class CellsQuarantinedError(ReproError):
    """Grid cells the worker executor gave up on after every retry.

    Raised by :meth:`repro.sim.experiment.ExperimentRunner.run` after it
    records the survivors: a figure cannot aggregate over a missing
    cell. ``report`` is the run's
    :class:`repro.sim.ftexec.FaultToleranceReport`.
    """

    def __init__(self, report) -> None:
        self.report = report
        super().__init__(
            f"{len(report.quarantined)} cell(s) quarantined after "
            "exhausting their retries"
        )


class ChaosError(ReproError):
    """A failure injected by the chaos harness (never a real bug).

    Raised inside sweep workers when ``REPRO_CHAOS`` (or an explicit
    :class:`repro.sim.chaos.ChaosConfig`) injects an exception-mode
    fault; the fault-tolerant executor is expected to retry the cell.
    """


class HeapAuditError(ReproError):
    """The cross-layer heap auditor found an invariant violation.

    Raised by :mod:`repro.check` when two views of the same failure
    state — hardware ECC-exhausted lines, OS failure-table bitmaps,
    per-block Immix line marks, clustering redirection maps — disagree,
    or when a heap-structure invariant (object overlap, live data on a
    failed line, page-ownership conservation) is broken. The message
    carries the rendered :class:`repro.check.audit.AuditReport`.
    """
