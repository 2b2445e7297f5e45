"""Ablation (paper section 7.2): is wear leveling helpful or harmful?

The paper argues wear leveling — accepted hardware wisdom — becomes
harmful once failures start, because uniformly spread failures maximize
fragmentation; and that failure-aware software plus retirement of the
first failing lines is the better strategy. This bench ages one module
per configuration and reports lifetime and endurance utilization. It
also reproduces the abstract's motivating number: page-grained
retirement kills the module when only ~2 % of lines have failed.
"""

import dataclasses

from conftest import FULL, run_once

from repro.sim.lifetime import run_strategy, write_heavy
from repro.workloads import workload

#: Report label of each lifetime strategy, in STRATEGIES order.
LABELS = {
    "retire": "retire page on first failure",
    "aware": "failure-aware, no clustering",
    "clustered": "failure-aware, 2CL",
    "start-gap": "failure-aware, start-gap",
}


def _spec():
    spec = write_heavy(workload("avrora"), mutations_per_object=2.0)
    alloc = 4_000_000 if FULL else 1_500_000
    return dataclasses.replace(spec, total_alloc_bytes=alloc)


def run_all():
    spec = _spec()
    cap = 30 if FULL else 15
    endurance = 40.0
    return {
        label: run_strategy(
            spec, strategy, max_iterations=cap, endurance_mean_writes=endurance
        )
        for strategy, label in LABELS.items()
    }


def test_ablation_wear_leveling(benchmark):
    results = run_once(benchmark, run_all)
    print()
    print("Memory lifetime under different wear-management strategies")
    print("==========================================================")
    for label, result in results.items():
        print(
            f"{label:32s} {result.iterations_completed:3d} iterations, "
            f"{result.final_failed_fraction:6.1%} of lines consumed"
        )
    retire = results["retire page on first failure"]
    aware = results["failure-aware, no clustering"]
    # The paper's motivation: page retirement wastes the memory while
    # only a tiny fraction of lines has actually failed...
    assert retire.final_failed_fraction < 0.10
    # ...and failure-aware software runs substantially longer.
    assert aware.iterations_completed >= 2 * retire.iterations_completed
