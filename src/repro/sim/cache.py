"""Persistent, content-addressed result cache for experiment runs.

Every figure and sweep executes cells of the same (workload x config x
seed) grid; this module lets completed cells survive the process so
repeated invocations — and concurrent workers — skip them.

Keys are a SHA-256 over three ingredients:

* the full :class:`~repro.sim.machine.RunConfig` (including the failure
  model),
* the :class:`~repro.runtime.time_model.CostModel` constants — two
  runners with different cost models must never share results,
* a code-version fingerprint (hash of the ``repro`` package sources),
  so editing the simulator invalidates stale entries automatically.

Entries are one JSON file each, sharded by key prefix, written with a
temp-file + rename so concurrent processes never observe a torn entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Union

from ..faults.generator import FailureModel
from ..runtime.time_model import DEFAULT_COST_MODEL, CostModel
from .machine import RunConfig, RunResult

#: Bump manually on cache-format (not simulator) changes.
SCHEMA_VERSION = 1

#: Temp files younger than this survive :meth:`ResultCache.sweep_orphans`.
#: A live ``put`` holds its temp file for milliseconds (one JSON dump
#: plus a rename), so anything this old was abandoned by a killed
#: writer. Every cache-using command sweeps on startup, so sweeping
#: younger files would race a live writer: a sweep starting while
#: another process shares the cache directory (a second sweep, or its
#: workers) could delete a temp file that process is about to rename.
ORPHAN_MIN_AGE_S = 60.0


# ----------------------------------------------------------------------
# Serialization: RunConfig / RunResult <-> plain JSON dicts
# ----------------------------------------------------------------------
#: Policy fields are serialized only when non-default, so artifacts and
#: cache keys of default-policy runs stay byte-identical to those the
#: pre-policy code produced (the CI golden-artifact diff relies on it).
_POLICY_DEFAULTS = {
    "wear_policy": "none",
    "pool_policy": "paper",
    "placement_policy": "paper",
}


def config_to_dict(config: RunConfig) -> dict:
    data = dataclasses.asdict(config)
    # asdict already recursed into the frozen FailureModel dataclass.
    for name, default in _POLICY_DEFAULTS.items():
        if data.get(name) == default:
            del data[name]
    return data


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    data["failure_model"] = FailureModel(**data["failure_model"])
    # Policy fields absent at defaults (see _POLICY_DEFAULTS); the
    # dataclass defaults reconstruct them.
    return RunConfig(**data)


def result_to_dict(result: RunResult) -> dict:
    data = dataclasses.asdict(result)
    data["config"] = config_to_dict(result.config)
    return data


def result_from_dict(data: dict) -> RunResult:
    data = dict(data)
    data["config"] = config_from_dict(data["config"])
    return RunResult(**data)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (order-independent).

    Any edit to the simulator invalidates previously cached results;
    the hash is computed once per process. The hot-path kernels
    (``repro/heap/line_table.py``, ``repro/heap/block.py``, the OS
    failure table) are ordinary package sources, so editing a kernel
    rolls every key — no stale cross-version hits.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_key(
    config: RunConfig,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    fingerprint: Optional[str] = None,
) -> str:
    """Content address of one grid cell."""
    payload = {
        "schema": SCHEMA_VERSION,
        "config": config_to_dict(config),
        "cost_model": dataclasses.asdict(cost_model),
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class ResultCache:
    """On-disk RunResult store shared safely between processes.

    Parameters
    ----------
    root:
        Cache directory (created on first store).
    cost_model:
        Model baked into every key issued by this cache instance.
    fingerprint:
        Override for the code-version fingerprint (tests use this to
        exercise invalidation without editing source files).
    """

    def __init__(
        self,
        root: Union[str, Path],
        cost_model: CostModel = DEFAULT_COST_MODEL,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.cost_model = cost_model
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def key(self, config: RunConfig) -> str:
        return cache_key(config, self.cost_model, self.fingerprint)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, config: RunConfig) -> Optional[RunResult]:
        path = self._path(self.key(config))
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        # An entry from a different cache-format version is a miss even
        # if its fields happen to align with today's RunResult — the
        # key rolls with SCHEMA_VERSION, but a directory shared with a
        # newer writer can still hold foreign-schema files.
        if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
            self.misses += 1
            return None
        try:
            result = result_from_dict(data["result"])
        except (KeyError, TypeError):
            # Corrupt or written by an incompatible version: treat as miss.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def contains(self, config: RunConfig) -> bool:
        """Whether :meth:`get` would hit, without deserializing.

        The probe for dry runs estimating cache hits: it parses the
        entry and checks the schema tag (so corrupt, truncated, or
        foreign-schema files report as misses, matching :meth:`get`)
        but skips the RunResult reconstruction and never touches the
        hit/miss counters (an estimate must not skew the statistics of
        the real run that follows).
        """
        try:
            data = json.loads(self._path(self.key(config)).read_text())
        except (OSError, ValueError):
            return False
        return (
            isinstance(data, dict)
            and data.get("schema") == SCHEMA_VERSION
            and "result" in data
        )

    def put(self, config: RunConfig, result: RunResult) -> None:
        path = self._path(self.key(config))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": SCHEMA_VERSION, "result": result_to_dict(result)}
        # Atomic publish: a concurrent reader sees the old state or the
        # new one, never a partial file. A concurrent sweep_orphans may
        # unlink the temp file between the dump and the rename (the age
        # threshold makes that vanishingly rare, not impossible); the
        # write retries once through a fresh temp file.
        for attempt in range(2):
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, path)
            except FileNotFoundError:
                if attempt == 0:
                    continue
                raise
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            break
        self.stores += 1

    def sweep_orphans(self, min_age_s: float = ORPHAN_MIN_AGE_S) -> int:
        """Delete temp files abandoned by killed writers; returns the count.

        :meth:`put` publishes atomically, so a worker killed mid-write
        can only ever leak its unrenamed ``*.tmp`` file — harmless to
        correctness but accumulating forever. Long-lived entry points
        call this on startup. Only temp files older than ``min_age_s``
        are swept: a younger one may belong to a *live* writer in
        another process, and unlinking it would make that writer's
        ``os.replace`` fail (``put`` retries once, but the sweep should
        not be the thing forcing retries). Pass ``min_age_s=0`` to
        reclaim everything, e.g. when no writer can possibly be alive.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        cutoff = time.time() - min_age_s
        for orphan in self.root.glob("*/*.tmp"):
            try:
                if orphan.stat().st_mtime > cutoff:
                    continue
                orphan.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def entries(self) -> Iterable[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
