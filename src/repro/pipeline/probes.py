"""The probe layer: typed pipeline events, zero-cost when off.

Stages emit events at well-defined points; probes subscribe by
overriding handlers on :class:`Probe`.  The dispatch discipline keeps an
unprobed core paying nothing on the hot path:

* with no probe registered, ``state.probes is None`` and every emission
  site is a single ``is not None`` test;
* with probes registered, :class:`ProbeManager` precomputes one tuple of
  bound handlers *per event*, containing only probes that actually
  override that handler — an event nobody listens to costs an empty
  tuple check.

Probe event table (see DESIGN.md, "Pipeline architecture"):

=================  ============================================  =========================
event              emitted                                       payload
=================  ============================================  =========================
phase              start of each per-cycle phase                 phase name, cycle
fetch              instruction entered the fetch queue           ROBEntry, cycle
rename_stall       rename blocked this cycle                     cause, cycle
rename_sources     after SRT source lookup, before allocation    ROBEntry, cycle
allocate           after destination allocation                  ROBEntry, cycle
rename             instruction fully renamed/dispatched          ROBEntry, cycle
issue              selected, before the scheme's issue hook      ROBEntry, cycle
writeback          completion, before wakeup                     ROBEntry, cycle
precommit          precommit pointer passed the entry            ROBEntry, cycle
commit             retired, after the scheme's commit hook       ROBEntry, cycle
flush              pipeline flush, before scheme reclamation     entries, kind, cycle
early_release      scheme freed a register before commit         RegClass, ptag, cycle
claim              ATR claimed a previous mapping                RegClass, ptag, cycle
cycle_end          all phases of the cycle ran                   cycle
=================  ============================================  =========================

``rename_stall`` causes: ``empty``, ``rob``, ``rs``, ``lq``, ``sq``,
``freelist``.  ``flush`` kinds: ``branch``, ``interrupt``.  Every
per-instruction event carries the same :class:`~repro.pipeline.rob.ROBEntry`
object from ``fetch`` to ``commit`` or ``flush``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

#: Every probe event, in rough pipeline order.  ``ProbeManager`` exposes
#: one attribute per entry holding the tuple of subscribed handlers.
PROBE_EVENTS = (
    "phase",
    "fetch",
    "rename_stall",
    "rename_sources",
    "allocate",
    "rename",
    "issue",
    "writeback",
    "precommit",
    "commit",
    "flush",
    "early_release",
    "claim",
    "cycle_end",
)

#: The documented per-cycle phase order (oldest work first); the
#: ``phase`` event fires once per entry per cycle, in this order.
PHASE_ORDER = (
    "scheme_tick",
    "execute",
    "precommit",
    "commit",
    "issue",
    "rename",
    "fetch",
)


class Probe:
    """Subscriber base: override the handlers you care about.

    Handlers left untouched are detected by the manager and excluded
    from dispatch, so a probe pays only for the events it observes.
    """

    def on_phase(self, name: str, cycle: int) -> None:
        pass

    def on_fetch(self, entry, cycle: int) -> None:
        pass

    def on_rename_stall(self, cause: str, cycle: int) -> None:
        pass

    def on_rename_sources(self, entry, cycle: int) -> None:
        pass

    def on_allocate(self, entry, cycle: int) -> None:
        pass

    def on_rename(self, entry, cycle: int) -> None:
        pass

    def on_issue(self, entry, cycle: int) -> None:
        pass

    def on_writeback(self, entry, cycle: int) -> None:
        pass

    def on_precommit(self, entry, cycle: int) -> None:
        pass

    def on_commit(self, entry, cycle: int) -> None:
        pass

    def on_flush(self, flushed, kind: str, cycle: int) -> None:
        pass

    def on_early_release(self, file_cls, ptag: int, cycle: int) -> None:
        pass

    def on_claim(self, file_cls, ptag: int, cycle: int) -> None:
        pass

    def on_cycle_end(self, cycle: int) -> None:
        pass


class ProbeManager:
    """Holds the registered probes and the per-event dispatch tuples."""

    __slots__ = PROBE_EVENTS + ("probes",)

    def __init__(self):
        self.probes: List[Probe] = []
        for event in PROBE_EVENTS:
            setattr(self, event, ())

    def add(self, probe: Probe) -> None:
        self.probes.append(probe)
        self._rebuild()

    def remove(self, probe: Probe) -> None:
        self.probes.remove(probe)
        self._rebuild()

    def _rebuild(self) -> None:
        for event in PROBE_EVENTS:
            name = "on_" + event
            base = getattr(Probe, name)
            handlers: Tuple = tuple(
                getattr(probe, name) for probe in self.probes
                if getattr(type(probe), name, base) is not base
            )
            setattr(self, event, handlers)

    def find(self, cls) -> Iterator[Probe]:
        """Registered probes that are instances of *cls*."""
        return (probe for probe in self.probes if isinstance(probe, cls))

    def __iter__(self) -> Iterator[Probe]:
        return iter(self.probes)

    def __len__(self) -> int:
        return len(self.probes)


class RecordingProbe(Probe):
    """Records every event as ``(event, cycle, detail)`` triples — the
    reference subscriber for stage-order and wiring tests."""

    def __init__(self):
        self.events: List[tuple] = []

    def on_phase(self, name, cycle):
        self.events.append(("phase", cycle, name))

    def on_fetch(self, entry, cycle):
        self.events.append(("fetch", cycle, entry.seq))

    def on_rename_stall(self, cause, cycle):
        self.events.append(("rename_stall", cycle, cause))

    def on_rename_sources(self, entry, cycle):
        self.events.append(("rename_sources", cycle, entry.seq))

    def on_allocate(self, entry, cycle):
        self.events.append(("allocate", cycle, entry.seq))

    def on_rename(self, entry, cycle):
        self.events.append(("rename", cycle, entry.seq))

    def on_issue(self, entry, cycle):
        self.events.append(("issue", cycle, entry.seq))

    def on_writeback(self, entry, cycle):
        self.events.append(("writeback", cycle, entry.seq))

    def on_precommit(self, entry, cycle):
        self.events.append(("precommit", cycle, entry.seq))

    def on_commit(self, entry, cycle):
        self.events.append(("commit", cycle, entry.seq))

    def on_flush(self, flushed, kind, cycle):
        self.events.append(("flush", cycle, (kind, len(flushed))))

    def on_early_release(self, file_cls, ptag, cycle):
        self.events.append(("early_release", cycle, (file_cls.value, ptag)))

    def on_claim(self, file_cls, ptag, cycle):
        self.events.append(("claim", cycle, (file_cls.value, ptag)))

    def on_cycle_end(self, cycle):
        self.events.append(("cycle_end", cycle, None))

    def of_kind(self, event: str) -> List[tuple]:
        return [e for e in self.events if e[0] == event]
