"""Pipeline snapshots: the diagnostic payload of every validator failure.

A snapshot is a plain JSON-safe dict of the core's scheduling state at
one instant — ROB head/tail, the precommit pointer, free-list occupancy,
queue usage, frontend position, release-scheme accounting, and (when the
online sanitizer is attached) the ring buffer of recent pipeline events.
``DeadlockError`` and :class:`~repro.validate.sanitizer.InvariantViolation`
both carry one, so a hung or corrupted run reports *where the machine
was*, not just that it died.

This module deliberately imports nothing from ``repro.pipeline``: it
duck-types the core object, which keeps it importable from inside the
pipeline package without a cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def _entry_summary(entry) -> Optional[Dict]:
    if entry is None:
        return None
    return {
        "seq": entry.seq,
        "trace_seq": entry.trace_seq,
        "pc": entry.pc,
        "opcode": entry.instr.opcode.name,
        "issued": entry.issued,
        "completed": entry.completed,
        "precommitted": entry.precommitted,
        "wrong_path": entry.wrong_path,
        "unready_sources": entry.unready_sources,
    }


def pipeline_snapshot(core) -> Dict:
    """Capture the scheduling state as a JSON-safe dict.

    Accepts a ``Core`` or a ``PipelineState`` — only public fields of the
    pipeline state are read.
    """
    state = getattr(core, "state", core)
    rob = state.rob
    tail = None
    for entry in rob.in_flight():
        tail = entry
    files = {}
    for file_cls, file in state.rename_unit.files.items():
        files[file_cls.value] = {
            "size": file.size,
            "free": file.freelist.free_count,
            "min_free_watermark": file.freelist.min_free_watermark,
            "allocations": file.freelist.total_allocations,
            "frees": file.freelist.total_frees,
        }
    snap = {
        "cycle": state.cycle,
        "committed": state.stats.committed,
        "trace_length": len(state.trace),
        "rob_occupancy": len(rob),
        "rob_capacity": rob.capacity,
        "rob_head": _entry_summary(rob.head()),
        "rob_tail": _entry_summary(tail),
        "precommit_offset": rob.precommit_offset,
        "freelists": files,
        "rs_used": state.rs_used,
        "lq_used": state.lq_used,
        "sq_used": state.sq_used,
        "fetch_queue_depth": state.fetch_queue_depth,
        "trace_cursor": state.cursor,
        "wrong_path_fetch": state.wrong_path,
        "scheme": state.scheme.name,
        "scheme_frees": {
            "commit": state.scheme.stats.commit_frees,
            "flush": state.scheme.stats.flush_frees,
            "atr": state.scheme.stats.atr_frees,
            "nonspec": state.scheme.stats.nonspec_frees,
        },
        "flushes": state.stats.flushes,
    }
    # Duck-typed: any attached probe exposing a ring of recent events
    # (the invariant sanitizer does) contributes its trail.
    if state.probes is not None:
        for probe in state.probes:
            ring = getattr(probe, "ring", None)
            if ring is not None:
                snap["recent_events"] = ring.formatted()
                break
    return snap


def _format_entry(label: str, info: Optional[Dict]) -> str:
    if info is None:
        return f"  {label}: (empty)"
    flags = "".join(
        c for c, on in (
            ("W", info["wrong_path"]), ("I", info["issued"]),
            ("C", info["completed"]), ("P", info["precommitted"]),
        ) if on
    )
    return (f"  {label}: #{info['seq']} {info['opcode']} pc={info['pc']} "
            f"trace_seq={info['trace_seq']} [{flags or '-'}] "
            f"unready={info['unready_sources']}")


def format_snapshot(snap: Dict) -> str:
    """Human-readable multi-line rendering of a pipeline snapshot."""
    lines: List[str] = [
        f"pipeline snapshot @ cycle {snap['cycle']} "
        f"({snap['committed']}/{snap['trace_length']} committed, "
        f"scheme {snap['scheme']})",
        f"  ROB {snap['rob_occupancy']}/{snap['rob_capacity']}, "
        f"precommit offset {snap['precommit_offset']}, "
        f"flushes {snap['flushes']}",
        _format_entry("head", snap["rob_head"]),
        _format_entry("tail", snap["rob_tail"]),
    ]
    for name, info in snap["freelists"].items():
        lines.append(
            f"  {name} freelist: {info['free']}/{info['size']} free "
            f"(low-watermark {info['min_free_watermark']}, "
            f"{info['allocations']} allocs / {info['frees']} frees)")
    lines.append(
        f"  RS {snap['rs_used']}, LQ {snap['lq_used']}, SQ {snap['sq_used']}, "
        f"fetch-queue {snap['fetch_queue_depth']}, "
        f"cursor {snap['trace_cursor']}"
        f"{' (wrong-path fetch)' if snap['wrong_path_fetch'] else ''}")
    frees = snap["scheme_frees"]
    lines.append(
        f"  releases: commit {frees['commit']}, flush {frees['flush']}, "
        f"atr {frees['atr']}, nonspec {frees['nonspec']}")
    events = snap.get("recent_events")
    if events:
        lines.append(f"  last {len(events)} events:")
        lines.extend(f"    {event}" for event in events)
    return "\n".join(lines)
