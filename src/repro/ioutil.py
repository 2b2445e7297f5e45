"""Atomic file publication for artifacts.

Every artifact this package writes — ``BENCH_sweep.json``, Chrome
traces — is a publication point some other process may read or a
resumed run may depend on. A
writer killed mid-``write()`` must never leave a torn file behind:
the crash-safety story (fault-tolerant sweeps, ``--resume``) only
holds if interrupting a run cannot corrupt what it already produced.

The pattern matches :meth:`repro.sim.cache.ResultCache.put`: write to
a temp file in the destination directory, then ``os.replace`` — a
reader sees the old content or the new content, never a prefix. On
any failure the temp file is unlinked, so the worst outcome of a
killed writer is a leaked ``*.tmp`` alongside an intact artifact.

Append-only files (the sweep flight-recorder ledger) get the other
atomicity primitive, :func:`append_jsonl`: one whole JSON line per
``O_APPEND`` write, so many processes can share one ledger without a
lock and a torn *tail* (a writer killed mid-append) is the only
possible damage — which the ledger reader tolerates explicitly.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def atomic_write_text(path: str, text: str) -> None:
    """Publish ``text`` at ``path`` atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def append_jsonl(path: str, record: Any) -> None:
    """Append ``record`` to ``path`` as one JSON line, atomically.

    The line is serialized first and written with a single
    ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
    appenders — the sweep parent and its worker processes all share
    one ledger file — interleave whole lines, never fragments of
    them. (POSIX guarantees the atomicity for writes up to PIPE_BUF;
    ledger records are well under that.) A process killed before the
    write leaves the file untouched; killed mid-``os.write`` on a
    local filesystem it still lands the whole line or nothing.
    """
    line = json.dumps(record, separators=(",", ":")) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def atomic_write_json(path: str, payload: Any, indent: int = 2) -> None:
    """Publish ``payload`` as JSON at ``path`` atomically.

    Serialization happens before the rename, so a payload that fails
    to serialize (or a writer killed mid-dump) leaves any existing
    file at ``path`` untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
