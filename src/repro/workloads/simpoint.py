"""SimPoint-style phase analysis (paper section 5.1 methodology).

The paper simulates representative 10M-instruction SimPoints aggregated by
weight.  This module reimplements the SimPoint pipeline at our scale:

1. slice a trace into fixed-size intervals,
2. build a basic-block vector (BBV) per interval — execution counts per
   basic-block leader PC, L1-normalized,
3. cluster BBVs with k-means (random-restart, numpy),
4. pick the interval closest to each centroid as the representative and
   weight it by cluster population.

``weighted_mean`` then aggregates per-simpoint metrics (e.g. IPC) exactly
the way the paper aggregates its simpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..frontend import Trace

if TYPE_CHECKING:
    import numpy as np


@dataclass
class SimPoint:
    """One representative interval."""

    interval_index: int
    start: int  # instruction offset into the trace
    length: int
    weight: float
    cluster: int


def basic_block_vectors(trace: Trace, interval: int = 2_000) -> Tuple[np.ndarray, List[int]]:
    """BBV matrix (intervals x blocks) and the block-leader PCs.

    A basic-block leader is the target of any control transfer or the
    entry PC; block execution is attributed to its leader.
    """
    import numpy as np

    leaders = {0}
    for entry in trace.entries:
        instr = entry.instr
        if instr.is_control:
            leaders.add(entry.next_pc)
            leaders.add(entry.pc + 1)
    leader_list = sorted(leaders)
    leader_index = {pc: i for i, pc in enumerate(leader_list)}

    rows: List[np.ndarray] = []
    current = np.zeros(len(leader_list), dtype=np.float64)
    current_leader = 0
    count_in_interval = 0
    for entry in trace.entries:
        if entry.pc in leader_index:
            current_leader = entry.pc
        current[leader_index[current_leader]] += 1
        count_in_interval += 1
        if count_in_interval >= interval:
            total = current.sum()
            rows.append(current / total if total else current)
            current = np.zeros(len(leader_list), dtype=np.float64)
            count_in_interval = 0
    if count_in_interval > interval // 2:
        total = current.sum()
        rows.append(current / total if total else current)
    if not rows:
        total = current.sum()
        rows.append(current / total if total else current)
    return np.vstack(rows), leader_list


def kmeans(data: np.ndarray, k: int, iterations: int = 50, seed: int = 0) -> np.ndarray:
    """Plain k-means; returns the cluster assignment per row."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = data.shape[0]
    k = min(k, n)
    centroids = data[rng.choice(n, size=k, replace=False)]
    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        distances = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = distances.argmin(axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(k):
            members = data[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return assignment


def pick_simpoints(trace: Trace, interval: int = 2_000, max_k: int = 6,
                   seed: int = 0) -> List[SimPoint]:
    """The full SimPoint pipeline for *trace*."""
    import numpy as np

    bbvs, _ = basic_block_vectors(trace, interval=interval)
    n = bbvs.shape[0]
    k = max(1, min(max_k, n))
    assignment = kmeans(bbvs, k, seed=seed)
    simpoints: List[SimPoint] = []
    for cluster in sorted(set(assignment.tolist())):
        member_idx = np.flatnonzero(assignment == cluster)
        centroid = bbvs[member_idx].mean(axis=0)
        distances = ((bbvs[member_idx] - centroid) ** 2).sum(axis=1)
        representative = int(member_idx[distances.argmin()])
        simpoints.append(
            SimPoint(
                interval_index=representative,
                start=representative * interval,
                length=min(interval, len(trace.entries) - representative * interval),
                weight=len(member_idx) / n,
                cluster=int(cluster),
            )
        )
    return simpoints


def slice_trace(trace: Trace, simpoint: SimPoint) -> Trace:
    """The sub-trace covered by *simpoint* (entries re-sequenced, each
    with its recorded result, which the window's golden check replays)."""
    entries = trace.entries[simpoint.start: simpoint.start + simpoint.length]
    resequenced = [
        type(entry)(
            seq=i, pc=entry.pc, instr=entry.instr, next_pc=entry.next_pc,
            taken=entry.taken, mem_addr=entry.mem_addr, result=entry.result,
        )
        for i, entry in enumerate(entries)
    ]
    return Trace(
        program=trace.program,
        entries=resequenced,
        name=f"{trace.name}@{simpoint.start}",
    )


def weighted_mean(values: Sequence[float], simpoints: Sequence[SimPoint]) -> float:
    """Weight-aggregate a per-simpoint metric, as the paper aggregates
    per-simpoint IPC."""
    if len(values) != len(simpoints):
        raise ValueError("one value per simpoint required")
    total_weight = sum(sp.weight for sp in simpoints)
    if total_weight == 0:
        return 0.0
    return sum(v * sp.weight for v, sp in zip(values, simpoints)) / total_weight
