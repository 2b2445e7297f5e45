"""Hot-path kernel microbenchmarks (pytest-benchmark rig).

Times each vectorized kernel against the naive loop it replaced (the
oracles in :mod:`tests.heap.oracles`) on deterministic synthetic
inputs, and asserts both the output identity and the speedups the
kernels claim. Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -q

The thresholds are deliberately looser than locally measured numbers
(shared CI machines jitter); bit-identity is exact.
"""

import gc
import random
from time import perf_counter

import pytest

from repro.faults.generator import FailureModel
from repro.hardware.geometry import Geometry
from repro.hardware.pcm import EnduranceModel, PcmModule
from repro.hardware.wear_leveling import StartGapWearLeveler
from repro.heap import line_table
from repro.heap.block import Block, sorted_defrag_candidates
from repro.heap.heap_table import HeapTable
from repro.heap.page_supply import HeapPage, PageSupply, heap_pages
from repro.heap.object_model import ObjectFactory
from repro.osim.memory_manager import OsMemoryManager
from repro.workloads.dacapo import DACAPO
from tests.faults import oracles as fault_oracles
from tests.hardware.oracles import ReferencePcmModule, module_state
from tests.heap import oracles
from tests.heap.oracles import (
    EPOCH,
    MULTI_LINE_OBJECT_SIZES,
    SMALL_OBJECT_SIZES,
    build_synthetic_block,
    build_synthetic_failure_table,
    synthetic_line_tables,
)
from tests.workloads.oracles import sample_size_reference


@pytest.fixture(scope="module")
def tables():
    geometry = Geometry(immix_line=64)  # 512-line tables: the big case
    return list(synthetic_line_tables(geometry.immix_lines_per_block).values())


def test_free_runs(benchmark, tables):
    benchmark(lambda: [line_table.free_runs(t) for t in tables])
    for table in tables:
        assert line_table.free_runs(table) == line_table.free_runs_reference(table)


def test_fragmentation_index(benchmark, tables):
    benchmark(lambda: [line_table.fragmentation_index(t) for t in tables])
    for table in tables:
        assert line_table.fragmentation_index(
            table
        ) == oracles.fragmentation_index_reference(table)


def full_sweep(block):
    """A sweep that cannot reuse the block's last one: a reassigned
    object list always takes the full rebuild."""
    block.objects = list(block.objects)
    return block.rebuild_line_marks(EPOCH)


def test_sweep_small_objects(benchmark):
    block = build_synthetic_block(Geometry(), seed=0)
    benchmark(lambda: full_sweep(block))


def test_sweep_multi_line_objects(benchmark):
    block = build_synthetic_block(
        Geometry(immix_line=64), seed=0, object_sizes=MULTI_LINE_OBJECT_SIZES
    )
    benchmark(lambda: full_sweep(block))


def test_cached_free_runs(benchmark):
    block = build_synthetic_block(Geometry(), seed=0)
    benchmark(block.free_runs)


def test_failure_table_decode(benchmark):
    table = build_synthetic_failure_table(Geometry(), seed=0)
    pages = table.imperfect_pages()

    def decode():
        table.failed_line_count()
        table.compressed_size_bytes()
        for page in pages:
            table.failed_offsets(page)

    benchmark(decode)


def shared_heap(n_blocks=16, seed=0):
    table = HeapTable(Geometry())
    blocks = [
        build_synthetic_block(Geometry(), seed=seed + i, table=table, virtual_index=i)
        for i in range(n_blocks)
    ]
    return table, blocks


def test_heap_scan(benchmark):
    table, _ = shared_heap()

    def scan():
        table.touch()
        table.free_line_count()
        table.failed_line_count()
        return table.slots_with_free_lines()

    benchmark(scan)


def test_heap_sweep_shared_table(benchmark):
    _, blocks = shared_heap(8)
    benchmark(lambda: [full_sweep(block) for block in blocks])


#: Sweeps an appending heap can take: the warm-up call plus up to
#: ``measure(1000)``'s iterations at the row's 1/10 share.
APPEND_CALLS = 128
#: Sub-line sizes for appended objects, so every block has room.
APPEND_SIZES = SMALL_OBJECT_SIZES[:5]


def appending_heap(seed, n_blocks=8, calls=APPEND_CALLS):
    """Eight swept blocks 30% full, and a step that appends one marked
    sub-line object to each (bump-placed into its free runs) and sweeps
    it.

    Returns ``(table, blocks, step)``; ``step(sweep)`` returns the
    sweeps' counts. Twin heaps built from one seed are identical.
    """
    geometry = Geometry()
    line = geometry.immix_line
    table = HeapTable(geometry)
    factory = ObjectFactory()
    rng = random.Random(seed)
    blocks, plans = [], []
    for index in range(n_blocks):
        block = build_synthetic_block(
            geometry, seed + index, fill_fraction=0.3, table=table, virtual_index=index
        )
        placements = []
        for start, length in block.free_runs():
            cursor, limit = start * line, (start + length) * line
            while len(placements) < calls:
                obj = factory.make(
                    rng.choice(APPEND_SIZES), pinned=rng.random() < 0.05
                )
                if cursor + obj.size > limit:
                    break
                obj.mark = EPOCH
                placements.append((obj, cursor))
                cursor += obj.size
        assert len(placements) == calls
        blocks.append(block)
        plans.append(iter(placements))

    def step(sweep):
        counts = []
        for block, plan in zip(blocks, plans):
            block.place(*next(plan))
            counts.append(sweep(block))
        return counts

    return table, blocks, step


# ----------------------------------------------------------------------
# Kernel vs oracle: identity and speedup floors
# ----------------------------------------------------------------------
def _time(fn, iterations):
    start = perf_counter()
    for _ in range(iterations):
        fn()
    return perf_counter() - start


def _speedup(fast, reference, iterations):
    # Warm once (primes caches and indexes, as in steady-state use).
    fast()
    reference()
    fast_s = _time(fast, iterations)
    reference_s = _time(reference, iterations)
    return reference_s / fast_s if fast_s > 0 else float("inf")


def _gc_paused(fn):
    def run():
        gc.disable()
        try:
            return fn()
        finally:
            gc.enable()

    return run


def _sweep_state(block, sweep):
    counts = sweep(block)
    return (
        counts,
        bytes(block.line_states),
        list(block.mark_conflicts),
        [obj.oid for obj in block.objects],
    )


def kernel_cases(seed=0):
    """name -> (fast, oracle, iterations / base iterations, identical)."""
    geometry = Geometry()
    cases = {}

    # Every paper line size: 64/128/256 B lines. Identity is checked on
    # every profile; timing skips the adversarial checkerboard, which
    # run-granular bump allocation cannot produce.
    all_tables, timed_tables = [], []
    for immix_line in (64, 128, 256):
        lines = Geometry(immix_line=immix_line).immix_lines_per_block
        for name, states in synthetic_line_tables(lines, seed).items():
            all_tables.append(states)
            if name != "checkerboard":
                timed_tables.append(states)

    def each_table(fn):
        return lambda: [fn(states) for states in timed_tables]

    cases["line_table.free_runs"] = (
        each_table(line_table.free_runs),
        each_table(line_table.free_runs_reference),
        1,
        all(
            line_table.free_runs(t) == line_table.free_runs_reference(t)
            for t in all_tables
        ),
    )
    cases["line_table.fragmentation_index"] = (
        each_table(line_table.fragmentation_index),
        each_table(oracles.fragmentation_index_reference),
        1,
        all(
            line_table.fragmentation_index(t)
            == oracles.fragmentation_index_reference(t)
            for t in all_tables
        ),
    )

    # Sweep over twin blocks, full state compared. Sub-line objects are
    # dominated by the per-object loop both share; multi-line objects at
    # 64 B lines are where the vectorized per-line work pays.
    fast_sweep = full_sweep
    oracle_sweep = lambda block: oracles.rebuild_line_marks_reference(  # noqa: E731
        block, EPOCH
    )
    for label, sweep_geometry, sizes in (
        ("small objects", geometry, SMALL_OBJECT_SIZES),
        ("multi-line objects", Geometry(immix_line=64), MULTI_LINE_OBJECT_SIZES),
    ):
        fast_block = build_synthetic_block(sweep_geometry, seed, object_sizes=sizes)
        oracle_block = build_synthetic_block(sweep_geometry, seed, object_sizes=sizes)
        cases[f"block.rebuild_line_marks ({label})"] = (
            lambda b=fast_block: fast_sweep(b),
            lambda b=oracle_block: oracle_sweep(b),
            1 / 4,
            _sweep_state(fast_block, fast_sweep)
            == _sweep_state(oracle_block, oracle_sweep),
        )

    # Allocator probe pattern: repeated free_runs on an unchanged block.
    block = build_synthetic_block(geometry, seed)
    recount = lambda: oracles.free_run_summary_reference(  # noqa: E731
        block.line_states
    ).runs
    cases["block.free_runs (cached)"] = (
        block.free_runs, recount, 1, block.free_runs() == recount()
    )

    lines = range(geometry.immix_lines_per_block)
    cases["block.objects_overlapping_line"] = (
        lambda: [block.objects_overlapping_line(line) for line in lines],
        lambda: [oracles.objects_overlapping_line_reference(block, line) for line in lines],
        1 / 20,
        all(
            block.objects_overlapping_line(line)
            == oracles.objects_overlapping_line_reference(block, line)
            for line in lines
        ),
    )

    table = build_synthetic_failure_table(geometry, seed=seed)
    pages = table.imperfect_pages()

    def decode():
        return (
            table.failed_line_count(),
            table.compressed_size_bytes(),
            [table.failed_offsets(page) for page in pages],
        )

    def decode_oracle():
        return (
            oracles.failed_line_count_reference(table),
            oracles.compressed_size_bytes_reference(table),
            [oracles.failed_offsets_reference(table, page) for page in pages],
        )

    cases["failure_table decode"] = (decode, decode_oracle, 1 / 10, decode() == decode_oracle())

    _, blocks = shared_heap(16, seed)
    cases["sorted_defrag_candidates"] = (
        lambda: sorted_defrag_candidates(blocks),
        lambda: oracles.sorted_defrag_candidates_reference(blocks),
        1 / 10,
        sorted_defrag_candidates(blocks)
        == oracles.sorted_defrag_candidates_reference(blocks),
    )

    # Whole-heap scans step over one retired mid-heap segment; touch()
    # first so the timed path is the real count, not the cache hit.
    heap_table, heap_blocks = shared_heap(16, seed)
    heap_table.retire(heap_blocks.pop(7).slot)

    def heap_counts():
        heap_table.touch()
        return heap_table.free_line_count(), heap_table.failed_line_count()

    def heap_counts_reference():
        return (
            heap_table.free_line_count_reference(),
            heap_table.failed_line_count_reference(),
        )

    cases["heap_table line counts (heap-scan)"] = (
        heap_counts, heap_counts_reference, 1 / 2,
        heap_counts() == heap_counts_reference(),
    )
    cases["heap_table.slots_with_free_lines"] = (
        heap_table.slots_with_free_lines,
        heap_table.slots_with_free_lines_reference,
        1 / 2,
        heap_table.slots_with_free_lines()
        == heap_table.slots_with_free_lines_reference(),
    )

    # The collector's sweep loop over a shared table; the final flat
    # arrays of the two heaps must match too.
    fast_table, fast_heap = shared_heap(8, seed)
    oracle_table, oracle_heap = shared_heap(8, seed)
    cases["heap sweep (shared table, 8 blocks)"] = (
        lambda: [fast_sweep(b) for b in fast_heap],
        lambda: [oracle_sweep(b) for b in oracle_heap],
        1 / 32,
        [_sweep_state(b, fast_sweep) for b in fast_heap]
        == [_sweep_state(b, oracle_sweep) for b in oracle_heap]
        and bytes(fast_table.lines) == bytes(oracle_table.lines),
    )

    # A sweep of blocks nobody touched since their last sweep: the
    # recorded counts come back without re-deriving a line.
    fast_table, fast_heap = shared_heap(8, seed)
    oracle_table, oracle_heap = shared_heap(8, seed)
    resweep = lambda block: block.rebuild_line_marks(EPOCH)  # noqa: E731
    cases["rebuild_line_marks (unchanged re-sweep)"] = (
        lambda: [resweep(b) for b in fast_heap],
        lambda: [oracle_sweep(b) for b in oracle_heap],
        1 / 4,
        [_sweep_state(b, resweep) for b in fast_heap]
        == [_sweep_state(b, oracle_sweep) for b in oracle_heap]
        and bytes(fast_table.lines) == bytes(oracle_table.lines),
    )

    # A sweep of blocks that were only appended to: the new object's
    # span merges into the recorded marks. Identity runs twin heaps
    # through a dozen append-and-sweep steps, compared after each.
    fast_table, fast_heap, fast_step = appending_heap(seed)
    oracle_table, oracle_heap, oracle_step = appending_heap(seed)
    identical = all(
        fast_step(resweep) == oracle_step(oracle_sweep)
        and bytes(fast_table.lines) == bytes(oracle_table.lines)
        and [
            ([o.oid for o in f.objects], f.mark_conflicts)
            for f in fast_heap
        ]
        == [([o.oid for o in r.objects], r.mark_conflicts) for r in oracle_heap]
        for _ in range(12)
    )
    _, _, fast_step = appending_heap(seed)
    _, _, oracle_step = appending_heap(seed)
    cases["rebuild_line_marks (appended suffix)"] = (
        lambda: fast_step(resweep),
        lambda: oracle_step(oracle_sweep),
        1 / 10,
        identical,
    )

    # Block construction over failing pages (10% of PCM lines, the
    # paper's 256 B lines): each page's Immix fail marks copied in two
    # slices, against the per-offset set and line loop over offset sets
    # decoded ahead of time, as pages used to carry them.
    rng = random.Random(seed)
    n_blocks = 16
    per_block = geometry.pages_per_block
    bitmaps = {
        index: sum(1 << i for i in range(geometry.lines_per_page) if rng.random() < 0.1)
        for index in range(n_blocks * per_block)
    }
    seed_pages = heap_pages(bitmaps, geometry)
    block_pages = [
        seed_pages[i : i + per_block] for i in range(0, len(seed_pages), per_block)
    ]
    perfect_pages = [[HeapPage(p.index) for p in group] for group in block_pages]
    offsets = [
        [oracles.page_offsets_reference(p.failed_bits, geometry) for p in group]
        for group in block_pages
    ]

    def seed_blocks():
        table = HeapTable(geometry)
        return [Block(i, group, geometry, table=table) for i, group in enumerate(block_pages)]

    def seed_blocks_oracle():
        table = HeapTable(geometry)
        blocks = []
        for i, group in enumerate(perfect_pages):
            block = Block(i, group, geometry, table=table)
            oracles.seed_block_reference(block, offsets[i])
            blocks.append(block)
        return blocks

    cases["heap.Block seeding (vs per-offset oracle)"] = (
        seed_blocks,
        seed_blocks_oracle,
        1 / 4,
        [oracles.block_segment(b) for b in seed_blocks()]
        == [oracles.block_segment(b) for b in seed_blocks_oracle()]
        == [oracles.seed_failed_lines_reference(group, geometry) for group in block_pages]
        and sum(b.n_failed for b in seed_blocks()) > 0,
    )

    # Perfect-page requests on a heap whose low 200 of 256 spans hold
    # blocks: the LOS claims spans and takes their perfect pages, then
    # gives them back, so every call starts from the same state. The
    # flag-byte search against the scan of every span.
    def fussy_supply(supply_class):
        rng = random.Random(seed)
        failures = {
            index: [0] if rng.random() < 0.5 else []
            for index in range(256 * per_block)
        }
        supply = supply_class(
            oracles.pages_from_offsets(failures, geometry, 256 * per_block), geometry
        )
        for _ in range(200):
            supply.take_block_pages()

        def cycle():
            taken = [supply.fussy_page(allow_borrow=False) for _ in range(40)]
            for page in taken:
                supply.release(page)
            return [page.index for page in taken]

        return cycle

    fussy, fussy_oracle = fussy_supply(PageSupply), fussy_supply(
        oracles.LinearScanPageSupply
    )
    cases["heap.PageSupply.fussy_page (vs linear scan)"] = (
        fussy,
        fussy_oracle,
        1 / 4,
        all(fussy() == fussy_oracle() for _ in range(3)),
    )

    # Trace size draws: the raw-getrandbits routine against randint,
    # over every DaCapo mix from one seeded generator per call.
    def draw_sizes(count):
        rng = random.Random(seed)
        random_, getrandbits = rng.random, rng.getrandbits
        return [
            spec.draw_size(random_, getrandbits) for spec in DACAPO for _ in range(count)
        ]

    def draw_sizes_oracle(count):
        rng = random.Random(seed)
        return [
            sample_size_reference(spec, rng) for spec in DACAPO for _ in range(count)
        ]

    per_spec = -(-100_000 // len(DACAPO))  # identity over 100k draws
    cases["workloads.draw_size (vs randint)"] = (
        lambda: draw_sizes(200),
        lambda: draw_sizes_oracle(200),
        1 / 4,
        draw_sizes(per_spec) == draw_sizes_oracle(per_spec),
    )

    # Static-failure absorption when the OS boots on an aged module the
    # size of a full-scale heap (4 MB: 1,024 pages, 65,536 lines). Both
    # sides build the same OS; the oracle starts from a clean module and
    # records the lines one at a time. Each call allocates thousands of
    # tracked objects, so the cyclic collector would pause to walk every
    # other case's live data inside a few-millisecond timing; it is
    # paused while either side runs.
    module_bytes = 4 * 1024 * 1024
    for rate in (0.1, 0.5):
        aged = PcmModule(size_bytes=module_bytes, geometry=geometry)
        failed = FailureModel(rate=rate).build(aged.n_lines, geometry, seed).failed_lines
        aged.inject_static_failures(failed)

        def absorb_oracle(failed=failed):
            os_mm = OsMemoryManager(PcmModule(size_bytes=module_bytes, geometry=geometry))
            oracles.absorb_static_failures_reference(os_mm, failed)
            return os_mm

        absorb = lambda aged=aged: OsMemoryManager(aged)  # noqa: E731
        cases[f"static-failure absorption ({rate:.0%})"] = (
            _gc_paused(absorb),
            _gc_paused(absorb_oracle),
            1 / 10,
            oracles.os_absorption_state(absorb())
            == oracles.os_absorption_state(absorb_oracle()),
        )

    # Failure-map build for the paper grid's pmd cell at 50% with
    # two-page clustering (108,544 lines): the per-line mask path
    # against the set transforms it replaced. Both sides make the same
    # uniform draw.
    n_lines, model = 108_544, FailureModel(rate=0.5, hw_region_pages=2)
    two_page = Geometry(region_pages=2)

    def build_oracle():
        failed = fault_oracles.uniform_reference(n_lines, model.rate, seed)
        return fault_oracles.hardware_clustering_reference(failed, n_lines, two_page)

    cases["failure-map build (50%, 2-page clustering)"] = (
        _gc_paused(lambda: model.build(n_lines, geometry, seed)),
        _gc_paused(build_oracle),
        1 / 50,
        model.build(n_lines, geometry, seed).failed_lines == build_oracle(),
    )

    # The PCM write path: one seeded wearing stream, 8-byte field stores
    # and whole-object writes over a hot working set, run on a fresh
    # module to dozens of line failures. The state is compared whole.
    # The second case adds the lifetime study's Start-Gap leveler and
    # two-page clustering, so every line of a store is leveled and
    # looked up in its region's redirection map.
    rng = random.Random(seed)
    stream = []
    for oid in range(20_000):
        line = rng.randrange(512) if rng.random() < 0.5 else rng.randrange(4096)
        size = 8 if rng.random() < 0.7 else rng.choice((16, 48, 96, 200))
        stream.append((line * 64 + rng.randrange(0, 64, 8), size, oid))

    def wear(module_class, leveled):
        module = module_class(
            size_bytes=4096 * 64,
            geometry=Geometry(region_pages=2) if leveled else geometry,
            endurance=EnduranceModel(mean_writes=40.0, cv=0.35, seed=seed),
            clustering_enabled=leveled,
            wear_leveler=StartGapWearLeveler(gap_write_interval=20) if leveled else None,
            failure_buffer_capacity=1 << 16,
            seed=seed,
        )
        write = module.write
        return [write(address, size, data) for address, size, data in stream], module

    for leveled, name in (
        (False, "hardware.PcmModule.write (vs oracle)"),
        (True, "hardware.PcmModule.write (start-gap + 2-page clustering)"),
    ):
        fast_results, fast_module = wear(PcmModule, leveled)
        oracle_results, oracle_module = wear(ReferencePcmModule, leveled)
        cases[name] = (
            lambda leveled=leveled: wear(PcmModule, leveled),
            lambda leveled=leveled: wear(ReferencePcmModule, leveled),
            1 / 100,
            fast_results == oracle_results
            and len(fast_module.failed_logical_lines()) >= 5
            and module_state(fast_module) == module_state(oracle_module),
        )
    return cases


def measure(iterations):
    """name -> (speedup, identical) for every kernel case."""
    return {
        name: (_speedup(fast, oracle, max(1, int(iterations * share))), identical)
        for name, (fast, oracle, share, identical) in kernel_cases().items()
    }


def test_kernel_speedups_and_identity():
    """Identity is exact; speedups hold CI-safe floors."""
    entries = measure(200)
    assert all(identical for _, identical in entries.values()), entries
    # Well under locally measured numbers (see EXPERIMENTS.md).
    floors = {
        "line_table.free_runs": 2.0,
        "block.rebuild_line_marks (multi-line objects)": 8.0,
        "block.free_runs (cached)": 10.0,
        "block.objects_overlapping_line": 10.0,
        "failure_table decode": 3.0,
        "sorted_defrag_candidates": 4.0,
        "heap_table line counts (heap-scan)": 8.0,
        "heap_table.slots_with_free_lines": 1.5,
        "heap sweep (shared table, 8 blocks)": 2.0,
        # Half the lowest of several local measurements (56-80x and
        # 32-33x at 1000 base iterations).
        "rebuild_line_marks (unchanged re-sweep)": 28.0,
        "rebuild_line_marks (appended suffix)": 16.0,
        "static-failure absorption (10%)": 2.0,
        "static-failure absorption (50%)": 4.0,
        "workloads.draw_size (vs randint)": 1.25,
        # Under a third of the 18-23x measured locally.
        "failure-map build (50%, 2-page clustering)": 6.0,
        # Half the measured 1.6x (1.4x with the leveler and clustering):
        # one threshold draw per touched line (MT19937 seeding, the same
        # C code on both sides) is about half of the fast side's time.
        "hardware.PcmModule.write (vs oracle)": 0.8,
        "hardware.PcmModule.write (start-gap + 2-page clustering)": 0.7,
        # About half the measured 2.5-3.5x and 3.2-3.7x.
        "heap.Block seeding (vs per-offset oracle)": 1.5,
        "heap.PageSupply.fussy_page (vs linear scan)": 1.6,
    }
    # The cheapest kernels time in tens of microseconds total, where a
    # single scheduler spike can sink any floor; one retry at higher
    # iteration count absorbs that without loosening the floors.
    failing = [k for k, f in floors.items() if entries[k][0] < f]
    if failing:
        retry = measure(500)
        for kernel in failing:
            entries[kernel] = max(entries[kernel], retry[kernel])
    for kernel, floor in floors.items():
        assert entries[kernel][0] >= floor, (
            f"{kernel}: {entries[kernel][0]:.2f}x < {floor}x floor"
        )
