"""Versioned snapshots: suspend and resume a lifetime study.

The paper's lifetime study (section 7.2) ages one PCM module over many
workload iterations, the one experiment with a horizon long enough to
be worth suspending. Each iteration builds a fresh machine over the
module, so an iteration boundary holds no heap, OS or runtime state:
a lifetime checkpoint pickles only the aging module (cell wear, the
failure buffer, clustering maps and the wear leveler), the records so
far and the next iteration. The module's pickling hooks drop process
wiring (tracers, the interrupt line) and re-solder it on restore. Restoring yields a study whose continuation is bit-identical
to one that was never interrupted (``tests/sim/test_snapshot.py`` and
the policy contract's lifetime round-trip enforce this).

On disk a snapshot is a small versioned envelope::

    magic · header-length · JSON header · zlib-compressed pickle

The header carries the schema version, the snapshot kind, caller
metadata, a SHA-256 of the payload, and the :func:`code fingerprint
<repro.sim.cache.code_fingerprint>` of the sources that produced it.
Restores check all four: resuming across code changes would silently
void the bit-identity guarantee, so a fingerprint mismatch raises
:class:`~repro.errors.SnapshotError` unless explicitly overridden.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import tempfile
import zlib
from typing import Any, Optional

from ..errors import SnapshotError

#: First bytes of every snapshot file.
SNAPSHOT_MAGIC = b"REPROSNAP\n"
#: Envelope schema version; bump on any incompatible layout change.
SNAPSHOT_VERSION = 4

_HEADER_LEN = struct.Struct(">I")


def _code_fingerprint() -> str:
    # Imported lazily: repro.sim.cache imports repro.sim.machine, which
    # imports this module — a top-level import here would cycle.
    from .cache import code_fingerprint

    return code_fingerprint()


class MachineSnapshot:
    """An immutable, restorable image of simulator state.

    ``capture`` serializes immediately — a snapshot holds bytes, not
    live references, so the captured state can keep changing without
    perturbing the image. ``state`` is whatever object graph the caller
    wants back; a lifetime study saves the aging PCM module, its records
    and the next iteration.
    """

    __slots__ = ("kind", "meta", "fingerprint", "_blob")

    def __init__(
        self, kind: str, meta: dict, blob: bytes, fingerprint: Optional[str] = None
    ) -> None:
        self.kind = kind
        self.meta = meta
        self.fingerprint = fingerprint or _code_fingerprint()
        self._blob = blob

    # ------------------------------------------------------------------
    # Capture / restore
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls, state: Any, kind: str = "lifetime", meta: Optional[dict] = None
    ) -> "MachineSnapshot":
        """Serialize ``state`` now; the live objects are not retained."""
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(kind=kind, meta=dict(meta or {}), blob=blob)

    def restore(self, check_fingerprint: bool = True) -> Any:
        """Materialize the captured state graph, after checking that the
        running sources are the ones that captured it."""
        if check_fingerprint:
            current = _code_fingerprint()
            if self.fingerprint != current:
                raise SnapshotError(
                    f"snapshot was taken by different simulator sources "
                    f"(fingerprint {self.fingerprint[:12]}… vs running "
                    f"{current[:12]}…); resuming across code changes would "
                    f"break bit-identity. Pass check_fingerprint=False to "
                    f"override."
                )
        return pickle.loads(self._blob)

    # ------------------------------------------------------------------
    # Envelope
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        payload = zlib.compress(self._blob, 6)
        header = json.dumps(
            {
                "version": SNAPSHOT_VERSION,
                "kind": self.kind,
                "meta": self.meta,
                "fingerprint": self.fingerprint,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "raw_bytes": len(self._blob),
            },
            sort_keys=True,
        ).encode("utf-8")
        return SNAPSHOT_MAGIC + _HEADER_LEN.pack(len(header)) + header + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "MachineSnapshot":
        if not data.startswith(SNAPSHOT_MAGIC):
            raise SnapshotError("not a snapshot file (bad magic)")
        offset = len(SNAPSHOT_MAGIC)
        if len(data) < offset + _HEADER_LEN.size:
            raise SnapshotError("truncated snapshot (no header length)")
        (header_len,) = _HEADER_LEN.unpack_from(data, offset)
        offset += _HEADER_LEN.size
        if len(data) < offset + header_len:
            raise SnapshotError("truncated snapshot (incomplete header)")
        try:
            header = json.loads(data[offset : offset + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"corrupt snapshot header: {exc}") from exc
        if header.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unknown snapshot version {header.get('version')!r} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        payload = data[offset + header_len :]
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise SnapshotError(
                "snapshot payload integrity check failed "
                f"(expected {header.get('sha256')}, got {digest})"
            )
        try:
            blob = zlib.decompress(payload)
        except zlib.error as exc:
            raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc
        if len(blob) != header.get("raw_bytes"):
            raise SnapshotError("snapshot payload length mismatch")
        return cls(
            kind=header.get("kind", ""),
            meta=header.get("meta", {}),
            blob=blob,
            fingerprint=header.get("fingerprint", ""),
        )

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write atomically: a reader (or a crash) never sees a torn file."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".snapshot-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self.to_bytes())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "MachineSnapshot":
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        return cls.from_bytes(data)


class CheckpointPolicy:
    """Emit a snapshot every N completed lifetime iterations (0 disables).

    An iteration boundary is the only point where a lifetime study
    holds no live machine, so a restored study replays bit-for-bit.
    """

    def __init__(self, path: str, every_steps: int = 0) -> None:
        if every_steps < 0:
            raise ValueError("every_steps must be >= 0")
        self.path = path
        self.every_steps = every_steps
        self.emitted = 0

    def due(self, done: int) -> bool:
        return self.every_steps > 0 and done > 0 and done % self.every_steps == 0

    def checkpoint(
        self, state: Any, kind: str = "lifetime", meta: Optional[dict] = None
    ) -> MachineSnapshot:
        snapshot = MachineSnapshot.capture(state, kind=kind, meta=meta)
        snapshot.save(self.path)
        self.emitted += 1
        return snapshot


# ----------------------------------------------------------------------
# State digest (policy-contract determinism support)
# ----------------------------------------------------------------------
def machine_digest(vm) -> str:
    """A stable digest of everything observable about a machine.

    Built from canonically ordered observables rather than pickle
    bytes: the collector's remembered set is a genuine ``set`` whose
    iteration order varies between otherwise identical machines.
    Two machines with equal digests produce the same continued run.
    """
    pcm = vm.injector.pcm
    supply = vm.supply
    table = getattr(vm.collector, "table", None)
    heap_table = None
    if table is not None:
        # The structure-of-arrays heap state, digested wholesale: the
        # flat line/failure arrays are the ground truth every kernel
        # reads, so a single changed byte (or slot bookkeeping around
        # them) flips this digest.
        heap_table = {
            "lines": hashlib.sha256(bytes(table.lines)).hexdigest(),
            "fail_marks": hashlib.sha256(bytes(table.fail_marks)).hexdigest(),
            "active_slots": table.active_slots(),
            "free_slots": list(table._free_slots),
            "free_lines": table.free_line_count(),
            "failed_lines": table.failed_line_count(),
        }
    state = {
        "stats": vm.stats.snapshot(),
        "roots": sorted(vm._roots.keys()),
        "pending_failure_gc": vm._pending_failure_gc,
        "pcm": {
            "writes": pcm.total_writes,
            "reads": pcm.total_reads,
            "failed_logical": pcm.failed_logical_indices().tolist(),
            "failed_physical": pcm.failed_physical_indices().tolist(),
            "write_counts": sorted(pcm.write_counts().items()),
            "pending": list(pcm._pending_failures),
            "fbuf": [
                (entry.address, entry.synthetic)
                for entry in pcm.failure_buffer.pending()
            ],
        },
        "os": {
            "upcalls": vm.os.upcalls,
            "relocated_pages": vm.os.relocated_pages,
            "owners": sorted(vm.os._owners.items()),
            "perfect_free": sorted(vm.os.pools._perfect),
            "imperfect_free": sorted(vm.os.pools._imperfect),
            "dram_free": sorted(vm.os.pools._dram),
            "allocated": sorted(vm.os.pools._allocated),
        },
        "supply": {
            "free_perfect": supply.free_perfect,
            "relaxed_taken": supply.relaxed_pages_taken,
            "fussy_taken": supply.fussy_pages_taken,
            "los_claims": supply.los_span_claims,
            "borrowed": supply.accountant.borrowed,
            "demand": supply.accountant.total_perfect_demand,
        },
        "heap_table": heap_table,
        "census": vm.heap_census(),
    }
    rendering = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()
