#!/usr/bin/env python
"""Quickstart: simulate one workload under every release scheme.

Builds the deepsjeng stand-in kernel, runs the Golden-Cove-like core with a
64-entry register file under the four schemes the paper evaluates, and
prints IPC plus where every register release came from.

Run:  python examples/quickstart.py
"""

from repro.pipeline import Core, golden_cove_config
from repro.workloads import build_trace

INSTRUCTIONS = 8_000
RF_SIZE = 64


def main() -> None:
    trace = build_trace("531.deepsjeng_r", INSTRUCTIONS)
    print(f"workload: {trace.name}  ({len(trace)} instructions)")
    print(f"register file: {RF_SIZE} entries per file (int / vector)\n")

    header = (f"{'scheme':12} {'IPC':>6} {'cycles':>8} {'commit':>7} "
              f"{'ATR':>6} {'nonspec':>8} {'flush':>6}")
    print(header)
    print("-" * len(header))
    baseline_ipc = None
    for scheme in ("baseline", "nonspec_er", "atr", "combined"):
        config = golden_cove_config(rf_size=RF_SIZE, scheme=scheme)
        core = Core(config, trace)
        stats = core.run()
        s = core.scheme.stats
        if baseline_ipc is None:
            baseline_ipc = stats.ipc
        gain = stats.ipc / baseline_ipc - 1
        print(f"{scheme:12} {stats.ipc:6.3f} {stats.cycles:8d} "
              f"{s.commit_frees:7d} {s.atr_frees:6d} {s.nonspec_frees:8d} "
              f"{s.flush_frees:6d}   ({gain:+.1%} vs baseline)")

    print("\nEvery run above ended by checking free-list conservation and")
    print("its committed architectural state against the values the")
    print("functional emulator recorded in the trace.")


if __name__ == "__main__":
    main()
