#!/usr/bin/env python
"""SimPoint-style evaluation (the paper's section 5.1 methodology).

Slices a long trace into intervals, clusters their basic-block vectors
with k-means, simulates only the representative interval of each cluster
from a functionally warmed checkpoint, and aggregates IPC by cluster
weight — then compares against simulating the whole trace.  Each window
core starts from the architectural state at its interval, so its
end-of-run golden check holds.

Run:  python examples/simpoint_methodology.py [benchmark]
"""

import sys

from repro.pipeline import Core, fast_forward, golden_cove_config
from repro.workloads import (
    build_trace,
    pick_simpoints,
    resolve,
    slice_trace,
    weighted_mean,
)


def main() -> None:
    name = resolve(sys.argv[1] if len(sys.argv) > 1 else "x264")
    trace = build_trace(name, 24_000)
    simpoints = pick_simpoints(trace, interval=3_000, max_k=5)
    print(f"workload: {name} ({len(trace)} instructions)")
    print(f"simpoints: {len(simpoints)}")
    for sp in simpoints:
        print(f"  interval @{sp.start:>6} weight {sp.weight:.2f}")

    config = golden_cove_config(rf_size=64, scheme="atr")
    # One replay of the trace primes the predictor, caches and registers
    # at every window start, as the paper warms each SimPoint.
    warm = {w.instructions: w
            for w in fast_forward(config, trace, [sp.start for sp in simpoints])}
    ipcs = []
    for sp in simpoints:
        core = Core(config, slice_trace(trace, sp), warmup=warm[sp.start])
        ipcs.append(core.run().ipc)
    aggregated = weighted_mean(ipcs, simpoints)

    full = Core(config, trace).run().ipc
    error = abs(aggregated - full) / full
    print(f"\nweighted simpoint IPC: {aggregated:.3f}")
    print(f"full-trace IPC:        {full:.3f}   (error {error:.1%})")


if __name__ == "__main__":
    main()
