"""Pluggable wear-management policies (ROADMAP: related-work baselines).

The paper's headline claim — conventional wear-leveling is actively
*harmful* once a managed runtime can route allocation around failed
lines — was hard-coded into the stack: the hardware never leveled, the
OS always supplied imperfect pages first, and the runtime always placed
large objects on perfect pages. This package turns those three
decisions into policy seams so the claim can be tested against the
later counter-designs catalogued in PAPERS.md:

* :class:`~repro.policies.wear.WearLevelingPolicy` (hardware layer) —
  where writes land relative to line wear, and how a static failure map
  is reshaped by address remapping. ``none`` reproduces the paper;
  ``wolfram`` models WoLFRaM-style programmable address decoders
  (failed lines remapped into a spare region, rotation-based leveling);
  ``softwear`` models SoftWear's software-only region rotation.
* :class:`~repro.policies.pool.PagePoolPolicy` (OS layer) — how
  perfect/imperfect pages are ranked, supplied, and migrated. ``paper``
  is the supply order of section 3.2; ``migrant`` is a
  MigrantStore-style baseline that migrates data off damaged frames
  entirely (whole-page retirement, perfect-first supply).
* :class:`~repro.policies.placement.PlacementPolicy` (runtime layer) —
  which allocations may land on imperfect pages. ``paper`` is the
  runtime-aware placement of section 3.3; ``hrm`` is a
  Heterogeneous-Reliability-Memory-style split that routes
  error-tolerant large objects through line-space arraylets instead of
  demanding perfect LOS pages.

Policies are selected by name via ``RunConfig`` fields (``wear_policy``,
``pool_policy``, ``placement_policy``) and resolved through the
registries below. Implementations must be deterministic under a fixed
seed (lifetime studies under their levelers included) and must never
place writes on FAILED lines — the contract suite in
``tests/policies/contract.py`` holds every registered implementation
to exactly those invariants, so a third design dropped into a registry
gets its coverage for free.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..errors import ConfigError
from .placement import HrmPlacementPolicy, PaperPlacementPolicy, PlacementPolicy
from .pool import MigrantPoolPolicy, PagePoolPolicy, PaperPoolPolicy
from .wear import (
    NoWearPolicy,
    SoftwearWearPolicy,
    WearLevelingPolicy,
    WolframWearPolicy,
)

#: Default spellings: the paper's design, bit-identical to the
#: pre-policy code paths (CI-enforced against pinned golden artifacts).
DEFAULT_WEAR_POLICY = "none"
DEFAULT_POOL_POLICY = "paper"
DEFAULT_PLACEMENT_POLICY = "paper"

WEAR_POLICIES: Dict[str, Type[WearLevelingPolicy]] = {
    "none": NoWearPolicy,
    "wolfram": WolframWearPolicy,
    "softwear": SoftwearWearPolicy,
}

POOL_POLICIES: Dict[str, Type[PagePoolPolicy]] = {
    "paper": PaperPoolPolicy,
    "migrant": MigrantPoolPolicy,
}

PLACEMENT_POLICIES: Dict[str, Type[PlacementPolicy]] = {
    "paper": PaperPlacementPolicy,
    "hrm": HrmPlacementPolicy,
}


def _resolve(registry: Dict[str, type], name: str, axis: str):
    try:
        cls = registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise ConfigError(
            f"unknown {axis} {name!r}; choose from {known}"
        ) from None
    return cls()


def resolve_wear_policy(name: str) -> WearLevelingPolicy:
    return _resolve(WEAR_POLICIES, name, "wear_policy")


def resolve_pool_policy(name: str) -> PagePoolPolicy:
    return _resolve(POOL_POLICIES, name, "pool_policy")


def resolve_placement_policy(name: str) -> PlacementPolicy:
    return _resolve(PLACEMENT_POLICIES, name, "placement_policy")


def policy_triple(
    wear: str, pool: str, placement: str
) -> Tuple[WearLevelingPolicy, PagePoolPolicy, PlacementPolicy]:
    """Resolve all three axes at once (fails fast on any unknown name)."""
    return (
        resolve_wear_policy(wear),
        resolve_pool_policy(pool),
        resolve_placement_policy(placement),
    )


__all__ = [
    "DEFAULT_WEAR_POLICY",
    "DEFAULT_POOL_POLICY",
    "DEFAULT_PLACEMENT_POLICY",
    "WEAR_POLICIES",
    "POOL_POLICIES",
    "PLACEMENT_POLICIES",
    "WearLevelingPolicy",
    "PagePoolPolicy",
    "PlacementPolicy",
    "NoWearPolicy",
    "WolframWearPolicy",
    "SoftwearWearPolicy",
    "PaperPoolPolicy",
    "MigrantPoolPolicy",
    "PaperPlacementPolicy",
    "HrmPlacementPolicy",
    "resolve_wear_policy",
    "resolve_pool_policy",
    "resolve_placement_policy",
    "policy_triple",
]
