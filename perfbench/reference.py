"""Compute the benchmark's reference data: the outputs every run checks.

Usage, from the root of a checkout::

    python3 perfbench/reference.py            # refuses to overwrite
    python3 perfbench/reference.py --force    # recompute and overwrite

Writes ``perfbench/reference.json`` with

* ``detailed``: simulated cycles, committed instructions and a stats
  digest of each ``detailed-sweep`` cell;
* ``tiered``: the full-detailed IPC of each ``tiered-50k`` cell at the
  same length, the reference its tiered IPC error is measured against
  (well under a minute of simulation);
* ``lint``: active and suppressed finding counts by rule, and atomic /
  closed static window counts, of every addressable ref.

Recompute only when the simulator's behaviour is meant to change, and say
so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402

COMMAND = "python3 perfbench/reference.py --force"


def compute() -> dict:
    from perfbench import suite
    from repro.harness import CellSpec, sweep
    from repro.workloads import workload_names

    detailed_specs = [CellSpec(b, suite.RF_SIZE, s, suite.DETAILED_INSTRUCTIONS)
                      for b in suite.DETAILED_BENCHMARKS for s in suite.SCHEMES]
    tiered_specs = [CellSpec(b, suite.RF_SIZE, s, suite.TIERED_INSTRUCTIONS)
                    for b in suite.TIERED_BENCHMARKS for s in suite.SCHEMES]
    report = sweep(detailed_specs + tiered_specs, jobs=1, store=None)
    report.require_complete()

    cells = {}
    for spec in detailed_specs:
        cell = report[spec]
        cells[suite.cell_key(spec.benchmark, spec.scheme)] = {
            "cycles": cell.stats.cycles, "committed": cell.stats.committed,
            "digest": suite.stats_digest(cell)}
    detailed_ipc = {suite.cell_key(spec.benchmark, spec.scheme): report[spec].ipc
                    for spec in tiered_specs}

    names = list(workload_names(variants=True))
    lint = {name: suite.lint_one(name) for name in sorted(names)}
    return {
        "command": COMMAND,
        "host": env.host_fingerprint(),
        "detailed": {"instructions": suite.DETAILED_INSTRUCTIONS,
                     "rf_size": suite.RF_SIZE, "cells": cells},
        "tiered": {"instructions": suite.TIERED_INSTRUCTIONS,
                   "rf_size": suite.RF_SIZE, "detailed_ipc": detailed_ipc},
        "lint": lint,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing reference")
    args = parser.parse_args(argv)
    from perfbench.suite import REFERENCE

    if REFERENCE.exists() and not args.force:
        print(f"reference: {REFERENCE.name} exists; pass --force to "
              f"recompute and overwrite it", file=sys.stderr)
        return 1
    env.bootstrap()
    data = compute()
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"reference: wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
