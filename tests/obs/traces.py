"""Shared check for the per-cell Chrome traces of a traced grid."""

import json
from pathlib import Path
from typing import Dict

from repro.obs import validate_chrome_trace

#: The span each collection opens, whichever collector ran the cell.
GC_SPANS = {"gc.full", "gc.nursery"}


def collection_spans(directory) -> Dict[str, int]:
    """Trace file name -> collection spans in it, for every
    ``*.trace.json`` in ``directory``; each must be a valid Chrome
    trace."""
    spans = {}
    for path in sorted(Path(directory).glob("*.trace.json")):
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == [], path.name
        spans[path.name] = sum(
            event["ph"] == "B" and event["name"] in GC_SPANS
            for event in payload["traceEvents"]
        )
    assert spans, f"no cell traces in {directory}"
    return spans
