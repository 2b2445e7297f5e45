"""Reusable contract harness for wear-management policies.

Every policy registered in :mod:`repro.policies` — including third
implementations added later — must uphold the same interface
invariants; this module states them once as plain check functions, and
``tests/policies/test_contract.py`` parametrizes them over the
registries so a newly registered policy gets full coverage without
writing a single new test.

The contracts:

* **Determinism under a fixed seed** — a policy is part of the
  experiment's content address, so two runs of the same configuration
  must produce identical machines (checked via :func:`machine_digest`)
  and identical transformed failure maps.
* **No live data on FAILED lines** — whatever a policy remaps, rotates,
  migrates, or places, the heap-wide correctness condition of the paper
  still holds after a full collection.
* **Page-count conservation** — pool policies may move pages between
  the perfect/imperfect/allocated populations but never create, leak,
  or double-book a physical page.
* **Lifetime determinism** — two fresh lifetime studies under a wear
  policy's leveler age their modules identically.
"""

import hashlib
import json

from repro.faults.generator import FailureModel
from repro.faults.maps import FailureMap
from repro.hardware.geometry import Geometry
from repro.policies import (
    PLACEMENT_POLICIES,
    POOL_POLICIES,
    WEAR_POLICIES,
    policy_triple,
)
from repro.runtime.vm import VirtualMachine, VmConfig
from repro.units import KiB, MiB
from repro.workloads.driver import TraceDriver
from repro.workloads.spec import WorkloadSpec

#: Small mixed workload driving every end-to-end contract check; sized
#: to finish in well under a second while still forcing collections.
SMALL_SPEC = WorkloadSpec(
    name="policy-contract",
    description="small mixed workload for policy contracts",
    total_alloc_bytes=512 * KiB,
    immortal_bytes=32 * KiB,
    short_lifetime_bytes=24 * KiB,
    long_lifetime_bytes=96 * KiB,
    long_fraction=0.08,
    size_weights=(0.9, 0.07, 0.03),
    cohort_size=12,
    pinned_fraction=0.01,
)


def registered_wear_policies():
    return sorted(WEAR_POLICIES)


def registered_pool_policies():
    return sorted(POOL_POLICIES)


def registered_placement_policies():
    return sorted(PLACEMENT_POLICIES)


def registered_triples():
    """Every single-axis deviation from the default triple, plus the
    default itself and one all-non-default combination.

    The full Cartesian product grows multiplicatively with each new
    registration; this spanning set keeps the suite linear while still
    exercising every registered policy end to end.
    """
    triples = [("none", "paper", "paper")]
    for wear in registered_wear_policies():
        if wear != "none":
            triples.append((wear, "paper", "paper"))
    for pool in registered_pool_policies():
        if pool != "paper":
            triples.append(("none", pool, "paper"))
    for placement in registered_placement_policies():
        if placement != "paper":
            triples.append(("none", "paper", placement))
    non_default = (
        next((w for w in registered_wear_policies() if w != "none"), "none"),
        next((p for p in registered_pool_policies() if p != "paper"), "paper"),
        next((p for p in registered_placement_policies() if p != "paper"), "paper"),
    )
    if non_default not in triples:
        triples.append(non_default)
    return triples


def build_vm(wear, pool, placement, rate=0.20, seed=5, heap=1 * MiB):
    # Hardware-clustered failures keep whole-page-retiring pool
    # policies viable at this rate (uniform damage would touch nearly
    # every page); the contracts themselves are placement-agnostic.
    config = VmConfig(
        heap_bytes=heap,
        failure_model=FailureModel(rate=rate, hw_region_pages=2),
        seed=seed,
        wear_policy=wear,
        pool_policy=pool,
        placement_policy=placement,
    )
    return VirtualMachine(config)


def drive(vm, driver_seed=2):
    TraceDriver(SMALL_SPEC, driver_seed).run(vm)
    vm.collect(force_full=True)
    return vm


def sample_static_map(geometry, seed=11, rate=0.25, n_regions=32):
    model = FailureModel(rate=rate)
    n_lines = n_regions * geometry.region // geometry.pcm_line
    return model.build(n_lines, geometry, seed), n_lines


# ----------------------------------------------------------------------
# Wear-leveling policy contracts
# ----------------------------------------------------------------------
def check_wear_transform_deterministic(policy_name, seed=11):
    policy = WEAR_POLICIES[policy_name]()
    geometry = Geometry()
    static_map, _ = sample_static_map(geometry, seed=seed)
    first = policy.transform_static_map(static_map, geometry, seed)
    second = policy.transform_static_map(static_map, geometry, seed)
    assert first.failed_lines == second.failed_lines, (
        f"{policy_name}: transform is not deterministic under seed {seed}"
    )


def check_wear_transform_sound(policy_name, seed=11):
    """A transform may move failures, never invent or misplace them."""
    policy = WEAR_POLICIES[policy_name]()
    geometry = Geometry()
    static_map, n_lines = sample_static_map(geometry, seed=seed)
    transformed = policy.transform_static_map(static_map, geometry, seed)
    assert isinstance(transformed, FailureMap)
    assert transformed.n_lines == static_map.n_lines
    assert len(transformed.failed_lines) <= len(static_map.failed_lines), (
        f"{policy_name}: transform invented failures"
    )
    assert all(0 <= line < n_lines for line in transformed.failed_lines), (
        f"{policy_name}: transform moved a failure out of the module"
    )


def check_leveler_deterministic(policy_name, seed=7, n_lines=4096, writes=2000):
    policy = WEAR_POLICIES[policy_name]()
    geometry = Geometry()
    translations = []
    for _ in range(2):
        leveler = policy.build_leveler(geometry, seed)
        trace = []
        for i in range(writes):
            line = (i * 37) % n_lines
            trace.append(leveler.translate(line))
            leveler.on_write(line)
        translations.append(trace)
    assert translations[0] == translations[1], (
        f"{policy_name}: leveler translation stream is not deterministic"
    )


def check_leveler_in_bounds(policy_name, seed=7, n_lines=4096, writes=2000):
    policy = WEAR_POLICIES[policy_name]()
    leveler = policy.build_leveler(Geometry(), seed)
    for i in range(writes):
        line = (i * 53) % n_lines
        physical = leveler.translate(line)
        assert 0 <= physical < n_lines, (
            f"{policy_name}: translated line {line} -> {physical} "
            f"outside [0, {n_lines})"
        )
        leveler.on_write(line)


# ----------------------------------------------------------------------
# Page-pool policy contracts
# ----------------------------------------------------------------------
def check_pool_supply_order_registered(policy_name):
    from repro.osim.pools import PagePools

    policy = POOL_POLICIES[policy_name]()
    assert policy.supply_order in PagePools.SUPPLY_ORDERS


def check_page_conservation(wear, pool, placement):
    """Pages partition into free/allocated populations at all times."""
    vm = drive(build_vm(wear, pool, placement))
    pools = vm.os.pools
    populations = [
        set(pools._perfect),
        set(pools._imperfect),
        set(pools._dram),
        set(pools._allocated),
    ]
    union = set().union(*populations)
    assert sum(len(p) for p in populations) == len(union), (
        f"({wear}/{pool}/{placement}): a page is double-booked across pools"
    )
    assert union == set(pools.pages), (
        f"({wear}/{pool}/{placement}): pages leaked or invented "
        f"({len(union)} accounted, {len(pools.pages)} exist)"
    )


# ----------------------------------------------------------------------
# Placement policy contracts
# ----------------------------------------------------------------------
def check_placement_deterministic(policy_name):
    policy = PLACEMENT_POLICIES[policy_name]()

    class _Obj:
        def __init__(self, oid):
            self.oid = oid
            self.size = 16 * KiB

    verdicts = [policy.tolerant_large(_Obj(oid)) for oid in range(256)]
    again = [policy.tolerant_large(_Obj(oid)) for oid in range(256)]
    assert verdicts == again, f"{policy_name}: tolerant_large is not a pure function"
    assert all(isinstance(v, bool) for v in verdicts)


# ----------------------------------------------------------------------
# End-to-end contracts over policy triples
# ----------------------------------------------------------------------
def check_no_live_data_on_failed_lines(wear, pool, placement):
    vm = drive(build_vm(wear, pool, placement))
    line_size = vm.geometry.immix_line
    for block in vm.collector.blocks:
        failed = block.failed_line_indices()
        for obj in block.objects:
            for line in obj.line_span(line_size):
                assert line not in failed, (
                    f"({wear}/{pool}/{placement}): live object {obj.oid} "
                    f"spans failed line {line}"
                )


def check_machine_determinism(wear, pool, placement):
    digests = [
        machine_digest(drive(build_vm(wear, pool, placement))) for _ in range(2)
    ]
    assert digests[0] == digests[1], (
        f"({wear}/{pool}/{placement}): identical builds diverged"
    )


def check_lifetime_determinism(name):
    """Two fresh 4-iteration lifetime studies under ``name``'s leveler
    give equal results: the leveler adds no hidden state to a study."""
    import dataclasses

    from repro.policies import resolve_wear_policy
    from repro.sim.lifetime import run_lifetime, write_heavy
    from repro.workloads.dacapo import workload

    spec = write_heavy(workload("luindex"), mutations_per_object=2.0)
    spec = dataclasses.replace(spec, total_alloc_bytes=300_000)
    policy = resolve_wear_policy(name)
    results = [
        dataclasses.asdict(
            run_lifetime(
                spec, wear_leveler=policy.build_leveler(Geometry(), 0),
                endurance_mean_writes=30.0, max_iterations=4, seed=0,
            )
        )
        for _ in range(2)
    ]
    assert results[0] == results[1], f"{name}: identical studies diverged"


# ----------------------------------------------------------------------
# State digest (machine determinism support)
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
