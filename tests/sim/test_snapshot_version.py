"""Snapshot envelope versions: a build reads only its own version.

Version 2 changed the pickled ``PcmModule`` wear state (per-line
write-count and next-event lists instead of dicts), version 3 the
pickled ``Block`` (each block records its last sweep), and version 4
the module's failed lines (per-line byte arrays instead of int sets). An older
snapshot must be refused with the envelope's clear error rather than
unpickled into a machine that would crash or silently diverge.
"""

import json

import pytest

from repro.cli import main
from repro.errors import SnapshotError
from repro.sim.snapshot import (
    _HEADER_LEN,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    MachineSnapshot,
)


def with_version(data: bytes, version: int) -> bytes:
    """``data`` re-enveloped with ``version`` in its header."""
    offset = len(SNAPSHOT_MAGIC)
    (header_len,) = _HEADER_LEN.unpack_from(data, offset)
    start = offset + _HEADER_LEN.size
    header = json.loads(data[start : start + header_len])
    header["version"] = version
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = data[start + header_len :]
    return SNAPSHOT_MAGIC + _HEADER_LEN.pack(len(encoded)) + encoded + payload


def assert_refused(tmp_path, version):
    """Load a copy of a current snapshot relabelled ``version``."""
    data = MachineSnapshot.capture({"wear": [1, 2]}, kind="lifetime").to_bytes()
    assert MachineSnapshot.from_bytes(with_version(data, SNAPSHOT_VERSION))
    old = tmp_path / "old.snap"
    old.write_bytes(with_version(data, version))
    expected = (
        rf"unknown snapshot version {version} "
        rf"\(this build reads version {SNAPSHOT_VERSION}\)"
    )
    with pytest.raises(SnapshotError, match=expected):
        MachineSnapshot.load(str(old))


def test_version_1_envelope_is_refused(tmp_path):
    assert_refused(tmp_path, 1)


def test_version_2_envelope_is_refused(tmp_path):
    assert_refused(tmp_path, 2)


def test_version_3_lifetime_checkpoint_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "life.snap"
    assert main(["-q", "lifetime", "--workload", "luindex", "--iterations", "1",
                 "--checkpoint-every", "1", "--checkpoint", str(path)]) == 0
    path.write_bytes(with_version(path.read_bytes(), 3))
    capsys.readouterr()
    argv = ["lifetime", "--workload", "luindex", "--iterations", "2", "--resume", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"snapshot: unknown snapshot version 3 (this build reads version {SNAPSHOT_VERSION})"
    ]
