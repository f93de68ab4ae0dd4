"""Tiered simulation protocol: fast-forward warmup + weighted windows.

The paper's methodology simulates representative SimPoints and aggregates
them by weight (section 5.1); this module does the same at our scale, and
it is the throughput tier of the simulation stack (DESIGN.md, "Tiered
simulation"):

1. :func:`~repro.workloads.simpoint.pick_simpoints` selects up to
   ``max_windows`` representative intervals of the trace;
2. one fast-forward pass over the trace
   (:func:`~repro.pipeline.warmup.fast_forward`) primes branch/cache/
   architectural state at every window start, replaying the trace's
   recorded results rather than emulating the program again;
3. each window runs through the detailed core from its warm checkpoint;
4. whole-run statistics are reconstituted: IPC is the SimPoint-weighted
   mean of per-window IPCs (exactly how the paper aggregates), and every
   event counter is scaled from its weighted per-committed-instruction
   rate to the full trace length.

The result is an *estimate* of the full detailed run — EXPERIMENTS.md
quantifies fidelity — bought at a fraction of the detailed-instruction
cost.  Pure-detailed simulation stays available (and bit-exact) through
``TierPolicy(mode="detailed")`` / plain ``Core.run``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Tuple

from .frontend import Trace
from .pipeline import Core, CoreConfig
from .pipeline.stats import SimStats
from .pipeline.warmup import fast_forward
from .rename.schemes.base import SchemeStats
from .workloads.simpoint import SimPoint, pick_simpoints, slice_trace, weighted_mean


def _weighted_rate(per_window: List[float], simpoints: List[SimPoint],
                   total: int) -> int:
    """Scale a weighted per-instruction rate back to the full trace."""
    return round(weighted_mean(per_window, simpoints) * total)


def _stitch(cls, window_stats: List, committed: List[int],
            simpoints: List[SimPoint], represented: int):
    """A *cls* stats object for the whole trace: every counter field but
    ``cycles`` and ``committed`` is its windows' weighted
    per-instruction rate scaled to *represented* instructions, and every
    histogram is stitched the same way per bucket, dropping empty ones.
    """
    stitched = cls()
    for f in fields(cls):
        if f.name in ("cycles", "committed"):
            continue
        values = [getattr(s, f.name) for s in window_stats]
        if isinstance(values[0], dict):
            histogram = getattr(stitched, f.name)
            for key in sorted({k for v in values for k in v}):
                count = _weighted_rate(
                    [v.get(key, 0) / n for v, n in zip(values, committed)],
                    simpoints, represented)
                if count:
                    histogram[key] = count
        else:
            setattr(stitched, f.name, _weighted_rate(
                [v / n for v, n in zip(values, committed)],
                simpoints, represented))
    return stitched


def run_tiered(config: CoreConfig, trace: Trace, *, interval: int = 2_000,
               max_windows: int = 6, seed: int = 0,
               ) -> Tuple[SimStats, SchemeStats, Dict]:
    """Run *trace* under the tiered protocol.

    Returns ``(stats, scheme_stats, tier_info)``: whole-run-scale
    statistics stitched from the weighted windows, the release scheme's
    accounting at the same scale, and a description of the windows
    actually simulated (kept by the harness as ``CellResult.tier_info``).
    """
    simpoints = pick_simpoints(trace, interval=interval, max_k=max_windows,
                               seed=seed)
    warm = {w.instructions: w
            for w in fast_forward(config, trace, [sp.start for sp in simpoints])}

    window_stats: List[SimStats] = []
    window_scheme: List[SchemeStats] = []
    windows: List[Dict] = []
    for sp in simpoints:
        # SimPoint windows are distinct intervals, so each checkpoint
        # seeds exactly one core.
        core = Core(config, slice_trace(trace, sp), warmup=warm[sp.start])
        stats = core.run()
        window_stats.append(stats)
        window_scheme.append(core.scheme.stats)
        windows.append({
            "start": sp.start, "length": sp.length, "weight": sp.weight,
            "cluster": sp.cluster, "cycles": stats.cycles,
            "committed": stats.committed,
            "ipc": round(stats.ipc, 6),
        })

    represented = len(trace.entries)
    committed = [max(1, s.committed) for s in window_stats]
    ipc = weighted_mean(
        [s.committed / s.cycles for s in window_stats], simpoints)
    stitched = _stitch(SimStats, window_stats, committed, simpoints,
                       represented)
    stitched.cycles = max(1, round(represented / ipc)) if ipc else 0
    stitched.committed = represented
    scheme_stats = _stitch(SchemeStats, window_scheme, committed, simpoints,
                           represented)

    tier_info = {
        "mode": "tiered",
        "interval": interval,
        "max_windows": max_windows,
        "seed": seed,
        "represented_instructions": represented,
        "detailed_instructions": sum(sp.length for sp in simpoints),
        "warmup_instructions": max(sp.start for sp in simpoints),
        "windows": windows,
    }
    return stitched, scheme_stats, tier_info
