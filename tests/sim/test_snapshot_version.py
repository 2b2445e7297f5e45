"""Snapshot envelope versions: a build reads only its own version.

Version 2 changed the pickled ``PcmModule`` wear state (per-line
write-count and next-event lists instead of dicts), so a version-1
snapshot must be refused with the envelope's clear error rather than
unpickled into a module that would crash or silently diverge.
"""

import json

import pytest

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


def test_version_1_envelope_is_refused(tmp_path):
    data = MachineSnapshot.capture({"wear": [1, 2]}, kind="lifetime").to_bytes()
    assert MachineSnapshot.from_bytes(with_version(data, SNAPSHOT_VERSION))
    old = tmp_path / "old.snap"
    old.write_bytes(with_version(data, 1))
    expected = r"unknown snapshot version 1 \(this build reads version 2\)"
    with pytest.raises(SnapshotError, match=expected):
        MachineSnapshot.load(str(old))
