"""Cross-layer observability: structured tracing and logging.

See ``trace.py`` for the event/phase model, ``export.py`` for
Chrome-trace output, ``log.py`` for the stdout/stderr conventions,
``ledger.py`` for the wall-clock sweep flight recorder and
``profile.py`` for opt-in worker profiling.
"""

from .trace import (
    CATEGORIES,
    HARDWARE,
    OS,
    ROOT_PHASE,
    RUNTIME,
    TraceEvent,
    Tracer,
    maybe_span,
)
from .export import (
    LEDGER_CATEGORIES,
    chrome_trace,
    ledger_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_ledger_chrome_trace,
)
from .ledger import (
    LEDGER_SCHEMA,
    REPORT_SCHEMA,
    SweepLedger,
    SweepProgress,
    aggregate,
    read_ledger,
    worker_emit,
)
from .profile import merge_profiles, profile_call, render_hotspots

__all__ = [
    "CATEGORIES",
    "HARDWARE",
    "LEDGER_CATEGORIES",
    "LEDGER_SCHEMA",
    "OS",
    "REPORT_SCHEMA",
    "ROOT_PHASE",
    "RUNTIME",
    "SweepLedger",
    "SweepProgress",
    "TraceEvent",
    "Tracer",
    "aggregate",
    "chrome_trace",
    "ledger_chrome_trace",
    "maybe_span",
    "merge_profiles",
    "profile_call",
    "read_ledger",
    "render_hotspots",
    "validate_chrome_trace",
    "worker_emit",
    "write_chrome_trace",
    "write_ledger_chrome_trace",
]
