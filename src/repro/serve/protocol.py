"""Wire protocol of the ``repro serve`` experiment service.

One place defines what travels over HTTP — schema tags, job states,
status/problem envelopes — so the server, the client, and the tests
never drift apart. Everything is plain JSON over stdlib HTTP; the
documents clients POST are ordinary ``repro.plan/1`` plans (the same
files ``sweep --plan`` executes), and the artifact a finished job
serves is shaped exactly like ``BENCH_sweep.json``.

Exit-code mapping
-----------------
The CLI's exit conventions translate onto HTTP status codes:

=====================  ==========================================
CLI                    service
=====================  ==========================================
exit 0 (clean sweep)   job state ``completed``, artifact HTTP 200
exit 2 (usage error)   HTTP 422 at submission, with the full
                       precheck problem list (never just the first)
exit 3 (partial)       job state ``partial``: quarantined cells are
                       absent from the artifact, which still serves
                       with HTTP 200
=====================  ==========================================

Worker-side failures that would crash an offline sweep put the job in
state ``failed`` (its ``error`` field carries the reason); the service
itself stays up.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Version tag on every status / problem envelope the service emits.
PROTOCOL_SCHEMA = "repro.serve/1"

#: Envelope of one job's status document.
JOB_SCHEMA = "repro.serve-job/1"

#: Envelope of a rejection (the precheck problem list).
PROBLEMS_SCHEMA = "repro.serve-problems/1"

# Job lifecycle: queued -> running -> one terminal state.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_COMPLETED = "completed"  # exit-0 analog
STATE_PARTIAL = "partial"      # exit-3 analog: quarantined cells missing
STATE_FAILED = "failed"        # executor blew up; error says why

TERMINAL_STATES = (STATE_COMPLETED, STATE_PARTIAL, STATE_FAILED)

#: Content types the service emits.
CONTENT_JSON = "application/json"
CONTENT_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


class PlanRejected(Exception):
    """A submitted plan failed its precheck (the HTTP 422 path).

    ``problems`` is a list of ``{"where", "message"}`` dicts — the same
    shape :class:`~repro.errors.PlanError` renders on the CLI, every
    problem at once.
    """

    def __init__(self, problems: List[Dict[str, str]]) -> None:
        super().__init__(f"{len(problems)} plan problem(s)")
        self.problems = problems

    @classmethod
    def single(cls, where: str, message: str) -> "PlanRejected":
        return cls([{"where": where, "message": message}])


def problems_payload(problems: List[Dict[str, str]]) -> Dict[str, Any]:
    """The HTTP 422 response body."""
    return {"schema": PROBLEMS_SCHEMA, "problems": list(problems)}


def error_payload(message: str) -> Dict[str, Any]:
    """Body of a non-422 error response (400/404/405/409)."""
    return {"schema": PROTOCOL_SCHEMA, "error": message}


def progress_payload(
    snapshot: Dict[str, Any], message: Optional[str] = None
) -> Dict[str, Any]:
    """The ``progress`` block of a job status document.

    ``snapshot`` is a :meth:`repro.obs.ledger.SweepProgress.snapshot`
    dict (cells_total / executed / cached / quarantined / running /
    hit_rate / eta_s); ``message`` is the executor's latest per-cell
    narration line, or None before the first cell completes. The block
    is None until the job leaves ``queued``.
    """
    payload = dict(snapshot)
    payload["message"] = message
    return payload


def job_links(job_id: str) -> Dict[str, str]:
    """Hyperlinks a status document advertises for follow-up requests."""
    return {
        "self": f"/jobs/{job_id}",
        "artifact": f"/jobs/{job_id}/artifact",
        "cells": f"/jobs/{job_id}/cells",
    }


def validate_submission(document: Any) -> None:
    """Structural gate before the plan precheck proper.

    The precheck validates plan *content*; this rejects bodies the
    server cannot even hand to it — non-mapping documents and plans
    still carrying an ``include`` key (the server has no filesystem
    context to resolve includes against; :func:`repro.sim.plan.load_plan`
    merges and strips them client-side, which is what
    :meth:`repro.serve.client.ServeClient.submit_file` does).
    """
    if not isinstance(document, dict):
        raise PlanRejected.single(
            "<body>",
            f"plan must be a JSON mapping, got {type(document).__name__}",
        )
    if "include" in document:
        raise PlanRejected.single(
            "include",
            "the service cannot resolve file includes; merge them "
            "client-side (load_plan strips the key) and submit the "
            "flattened document",
        )


def describe_retry(policy: Optional[Any]) -> Dict[str, Any]:
    """JSON view of a RetryPolicy for /healthz (None = one attempt)."""
    if policy is None:
        from ..sim.ftexec import SINGLE_ATTEMPT

        policy = SINGLE_ATTEMPT
    return {
        "max_attempts": policy.max_attempts,
        "base_delay_s": policy.base_delay_s,
        "max_delay_s": policy.max_delay_s,
        "jitter": policy.jitter,
    }
