"""Wire-protocol unit tests: envelopes, validation, code mapping."""

import pytest

from repro.serve import protocol
from repro.sim.ftexec import RetryPolicy


class TestValidateSubmission:
    def test_rejects_non_mapping(self):
        with pytest.raises(protocol.PlanRejected) as excinfo:
            protocol.validate_submission([1, 2, 3])
        assert excinfo.value.problems[0]["where"] == "<body>"

    def test_rejects_unresolved_includes(self):
        with pytest.raises(protocol.PlanRejected) as excinfo:
            protocol.validate_submission(
                {"plan": "repro.plan/1", "include": ["defaults.yaml"]}
            )
        assert excinfo.value.problems[0]["where"] == "include"

    def test_accepts_plain_mapping(self):
        protocol.validate_submission({"plan": "repro.plan/1"})


class TestEnvelopes:
    def test_problems_payload(self):
        problems = [{"where": "axes.rate[0]", "message": "outside [0, 1]"}]
        payload = protocol.problems_payload(problems)
        assert payload["schema"] == protocol.PROBLEMS_SCHEMA
        assert payload["problems"] == problems

    def test_error_payload(self):
        payload = protocol.error_payload("no job 'job-000009'")
        assert payload["schema"] == protocol.PROTOCOL_SCHEMA
        assert "job-000009" in payload["error"]

    def test_job_links(self):
        links = protocol.job_links("job-000001")
        assert links["self"] == "/jobs/job-000001"
        assert links["artifact"] == "/jobs/job-000001/artifact"

    def test_terminal_states(self):
        assert protocol.STATE_COMPLETED in protocol.TERMINAL_STATES
        assert protocol.STATE_PARTIAL in protocol.TERMINAL_STATES
        assert protocol.STATE_FAILED in protocol.TERMINAL_STATES
        assert protocol.STATE_QUEUED not in protocol.TERMINAL_STATES
        assert protocol.STATE_RUNNING not in protocol.TERMINAL_STATES


class TestDescribeRetry:
    def test_none_means_single_attempt(self):
        view = protocol.describe_retry(None)
        assert view["max_attempts"] == 1
        assert view == protocol.describe_retry(RetryPolicy(max_attempts=1))

    def test_policy_fields(self):
        view = protocol.describe_retry(RetryPolicy(max_attempts=5))
        assert view["max_attempts"] == 5
        assert set(view) == {"max_attempts", "base_delay_s", "max_delay_s", "jitter"}
