"""Tests for atomic artifact publication (repro.ioutil).

The regression these guard: ``BENCH_sweep.json``/trace writers used
to ``open(path, "w")`` directly, so a writer killed mid-``write()``
left a torn artifact behind — exactly the file a resumed sweep or a
CI consumer reads next.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.ioutil import atomic_write_json, atomic_write_text


class TestAtomicWriters:
    def test_text_roundtrip(self, tmp_path):
        path = tmp_path / "notes.txt"
        atomic_write_text(str(path), "line 1\n")
        assert path.read_text() == "line 1\n"

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(str(path), {"schema": "x/1", "cells": 3})
        assert json.loads(path.read_text()) == {"schema": "x/1", "cells": 3}

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(str(path), {"run": 1})
        atomic_write_json(str(path), {"run": 2})
        assert json.loads(path.read_text()) == {"run": 2}

    def test_failed_serialization_leaves_old_content(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(str(path), {"run": 1})
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        # The old artifact is untouched and the temp file was unlinked.
        assert json.loads(path.read_text()) == {"run": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_no_temp_leak_on_success(self, tmp_path):
        path = tmp_path / "artifact.json"
        for run in range(5):
            atomic_write_json(str(path), {"run": run})
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


_KILL_VICTIM = """\
import sys
from repro.ioutil import atomic_write_json

path = sys.argv[1]
# Large enough that a torn write() is overwhelmingly likely under a
# naive writer killed at a random moment.
payload = {"generation": 0, "blob": list(range(200_000))}
atomic_write_json(path, payload)
print("ready", flush=True)
generation = 0
while True:
    generation += 1
    payload["generation"] = generation
    atomic_write_json(path, payload)
"""


class TestKillMidWrite:
    def test_sigkill_never_tears_artifact(self, tmp_path):
        """SIGKILL the writer at arbitrary points; the artifact must
        always parse and carry a complete payload."""
        path = tmp_path / "artifact.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        for delay in (0.05, 0.15, 0.3):
            proc = subprocess.Popen(
                [sys.executable, "-c", _KILL_VICTIM, str(path)],
                env=env,
                stdout=subprocess.PIPE,
            )
            try:
                assert proc.stdout.readline().strip() == b"ready"
                time.sleep(delay)
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                proc.stdout.close()
            payload = json.loads(path.read_text())
            assert len(payload["blob"]) == 200_000
        # Killed writers may leak a *.tmp at worst — never a torn
        # artifact. Clean-up is the cache sweep's job, not ours.
        for leftover in tmp_path.glob("*.tmp"):
            assert leftover.name != "artifact.json"
