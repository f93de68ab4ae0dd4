#!/usr/bin/env python
"""Atomic-region analysis of a workload (paper Figures 5, 6, and 12).

Classifies every register allocation chain of a trace into non-branch /
non-except / atomic regions, prints the consumer distribution of the
atomic ones, and renders a Figure-5-style per-instruction stage timing
table around the paper's omnetpp motif (load -> test+branch -> LEA/LEA/SHR).

Run:  python examples/atomic_region_analysis.py [benchmark]
"""

import sys

from repro.analysis import classify_regions, timeline_table
from repro.pipeline import Core, TimelineProbe, golden_cove_config
from repro.workloads import build_trace, resolve


def main() -> None:
    name = resolve(sys.argv[1] if len(sys.argv) > 1 else "omnetpp")
    trace = build_trace(name, 6_000)
    report = classify_regions(trace)

    print(f"workload: {name}  ({len(trace)} instructions, "
          f"{report.total_allocations} register allocations)\n")
    for kind in ("non_branch", "non_except", "atomic"):
        print(f"  {kind:>11} region ratio: {report.ratio(kind):6.2%}")

    histogram = report.consumer_histogram()
    total = sum(histogram.values()) or 1
    print("\nconsumers per atomic region (paper Fig. 12):")
    for consumers in sorted(histogram):
        share = histogram[consumers] / total
        print(f"  {consumers} consumer(s): {share:6.2%}  {'#' * int(share * 40)}")
    print(f"  mean: {report.mean_consumers():.2f}  "
          f"(3-bit counter covers up to 6)")

    # Figure-5-style stage timing for a window around an atomic region.
    core = Core(golden_cove_config(rf_size=64, scheme="atr"), trace)
    timeline = core.add_probe(TimelineProbe())
    core.run()
    atomic = report.atomic_chains()
    if atomic:
        anchor = max(atomic, key=lambda c: c.consumers)
        start = max(0, anchor.alloc_seq - 2)
        print(f"\nstage timing around an atomic region "
              f"(alloc @{anchor.alloc_seq} -> redefine @{anchor.redefine_seq}):")
        print(timeline_table(timeline.rows, trace, start_seq=start, count=8))


if __name__ == "__main__":
    main()
