"""Each simulated machine runs with CPython's cyclic collector paused and
is freed by one generation-0 pass as its run returns."""

import gc
import weakref

import pytest

from repro.check import campaign
from repro.faults.generator import FailureModel
from repro.heap.block import Block
from repro.obs.trace import Tracer
from repro.sim import machine
from repro.sim.machine import RunConfig, run_benchmark, run_wearing_benchmark

COLLECTORS = ("sticky-immix", "marksweep")


def small(collector, rate=0.0, seed=0):
    return RunConfig(
        workload="luindex",
        collector=collector,
        failure_model=FailureModel(rate=rate),
        scale=0.05,
        seed=seed,
    )


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every VM a run drives, in order."""
    refs = []
    drive = machine._drive_and_summarize

    def spy(vm, *args, **kwargs):
        refs.append(weakref.ref(vm))
        return drive(vm, *args, **kwargs)

    monkeypatch.setattr(machine, "_drive_and_summarize", spy)
    return refs


@pytest.fixture
def collector_on():
    """Start each test with the collector enabled, and leave it so."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.usefixtures("collector_on")
class TestMachineIsFreedOnReturn:
    """No ``gc.collect()`` here: the scope's own pass must free the VM."""

    @pytest.mark.parametrize("collector", COLLECTORS)
    def test_untraced(self, machines, collector):
        run_benchmark(small(collector))
        assert machines[-1]() is None

    @pytest.mark.parametrize("collector", COLLECTORS)
    def test_traced_with_a_callers_tracer(self, machines, collector):
        tracer = Tracer()
        result = run_benchmark(small(collector), tracer=tracer)
        assert machines[-1]() is None
        # The tracer outlives the machine and still reads the run's end.
        assert tracer.clock() == result.time_units
        assert len(tracer) > 0

    @pytest.mark.parametrize("collector", COLLECTORS)
    def test_wearing(self, machines, collector):
        run_wearing_benchmark(small(collector), tracer=Tracer())
        assert machines[-1]() is None

    def test_audit_campaign_runs(self, monkeypatch):
        refs = []
        build = campaign._build_vm

        def spy(*args, **kwargs):
            vm = build(*args, **kwargs)
            refs.append(weakref.ref(vm))
            return vm

        monkeypatch.setattr(campaign, "_build_vm", spy)
        result = campaign.run_campaign(workloads=["luindex", "antlr"], level="gc")
        assert len(result.runs) == len(refs) == 2
        assert [ref() for ref in refs] == [None, None]


@pytest.mark.usefixtures("collector_on")
class TestCollectorState:
    def test_paused_inside_and_restored_after_a_return(self, monkeypatch):
        seen = []
        drive = machine._drive_and_summarize

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return drive(*args, **kwargs)

        monkeypatch.setattr(machine, "_drive_and_summarize", spy)
        run_benchmark(small("sticky-immix"))
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_an_exception(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(machine, "_drive_and_summarize", boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_benchmark(small("sticky-immix"))
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self, machines):
        gc.disable()
        try:
            run_benchmark(small("sticky-immix"))
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert machines[-1]() is None


class TestResultsUnchanged:
    @pytest.mark.parametrize("rate", (0.0, 0.5))
    @pytest.mark.parametrize("collector", COLLECTORS)
    def test_equal_to_the_unwrapped_run(self, collector, rate):
        config = small(collector, rate)
        assert run_benchmark(config) == run_benchmark.__wrapped__(config)

    @pytest.mark.parametrize("collector", COLLECTORS)
    def test_wearing_equal_to_the_unwrapped_run(self, collector):
        config = small(collector, 0.5)
        assert run_wearing_benchmark(config) == run_wearing_benchmark.__wrapped__(
            config
        )


@pytest.mark.usefixtures("collector_on")
@pytest.mark.parametrize("collector", COLLECTORS)
def test_scope_pass_finds_only_the_final_collectors_blocks(collector):
    """A block a sweep retires is freed by reference counting during the
    run, so the end-of-cell pass meets only blocks still registered in
    the final collector's heap table."""
    config = RunConfig(
        workload="luindex",
        collector=collector,
        failure_model=FailureModel(rate=0.25),
        heap_multiplier=1.25,
        scale=0.2,
    )
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_benchmark(config)
        blocks = [obj for obj in gc.garbage if isinstance(obj, Block)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert blocks
    assert len({id(block.table) for block in blocks}) == 1
    retired = [block for block in blocks if block.table.owners[block.slot] is not block]
    assert retired == []
    del blocks
    gc.collect()


@pytest.mark.usefixtures("collector_on")
def test_dead_machines_do_not_pile_up():
    """Twenty cells back to back: the tracked-object count stays flat."""
    configs = [
        small(collector, rate, seed)
        for seed in range(5)
        for collector in COLLECTORS
        for rate in (0.0, 0.25)
    ]
    counts = []
    for config in configs:
        run_benchmark(config)
        counts.append(len(gc.get_objects()))
    assert abs(counts[19] - counts[4]) < 1_000, counts
