#!/usr/bin/env python
"""Memory aging: how long does a PCM module stay useful?

Ages one (deliberately fragile) PCM module by running a write-heavy
workload on it repeatedly, under four management strategies:

1. the DRAM-era baseline that retires a whole page on its first failed
   line — the paper's motivation: "only 2 % of lines need fail and the
   entire wearable memory becomes unusable";
2. the failure-aware runtime stepping around individual failed lines;
3. the same plus two-page failure-clustering hardware;
4. failure-aware plus Start-Gap wear leveling, to probe the paper's
   "wear leveling considered harmful" claim (section 7.2).

Every iteration exercises the full dynamic-failure path: cell wear ->
ECC exhaustion -> failure buffer -> OS interrupt -> runtime up-call ->
evacuating collection.

Run:  python examples/memory_aging.py
"""

import dataclasses

from repro.sim.lifetime import STRATEGIES, run_strategy, write_heavy
from repro.workloads import workload


def main() -> None:
    spec = write_heavy(workload("avrora"), mutations_per_object=2.0)
    spec = dataclasses.replace(spec, total_alloc_bytes=1_500_000)
    cap = 15
    endurance = 40.0  # scaled-down mean writes per line (real PCM: ~1e8)

    print("Aging one PCM module per strategy "
          f"(endurance ~{endurance:.0f} writes/line, {cap}-iteration cap)\n")

    results = [
        run_strategy(
            spec, strategy, max_iterations=cap, endurance_mean_writes=endurance
        )
        for strategy in STRATEGIES
    ]

    print(f"{'strategy':34s} {'iterations':>10s} {'lines consumed':>15s}")
    print("-" * 62)
    for result in results:
        iterations = result.iterations_completed
        capped = "+" if iterations >= cap else " "
        print(f"{result.label:34s} {iterations:>9d}{capped} "
              f"{result.final_failed_fraction:>14.1%}")

    retire, aware = results[0], results[1]
    print()
    print(f"Page retirement killed the module after "
          f"{retire.iterations_completed} iterations with only "
          f"{retire.final_failed_fraction:.1%} of lines actually failed —")
    print(f"the failure-aware runtime ran "
          f"{aware.iterations_completed}+ iterations on the same memory.")
    print("\nPer-iteration failure growth (failure-aware, no clustering):")
    for record in aware.records:
        bar = "#" * int(60 * record.failed_fraction)
        print(f"  iter {record.iteration:2d}  "
              f"{record.failed_fraction:6.1%}  {bar}")


if __name__ == "__main__":
    main()
