"""Span tracer for the traced benchmark run.

The tracer wraps public callables of each layer at the names their
callers look them up by (a class attribute, or a module attribute that
another module imported), records a span around every call, and restores
the originals on :meth:`Tracer.uninstall`.  A span is ``(id, name, start,
end, parent, run id, self seconds)``; spans live in memory and are written
out when the run ends.  Self time is the span's duration minus the time
its traced children covered, computed online from a stack of open frames.

Per-cycle calls (pipeline stages, release-scheme hooks) are too many to
keep as spans, so those wrappers only accumulate self time and a call
count under their name; they still nest, so an enclosing span's self time
excludes them.

Stage timing comes from a :class:`~repro.pipeline.Core` subclass that
wraps each stage's ``run`` and the scheme's hooks inside the
``_build_stages`` hook, before the core freezes its per-stage call tuple.
No probe is attached, because a probe forces the cycle-by-cycle spin loop
and the traced run would then simulate differently from the timed one.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Release-scheme hooks the stages call (``tick`` is timed separately:
#: it runs exactly once per ``Core.step``, so its call count is the step
#: count).
SCHEME_HOOKS = ("pre_rename", "post_rename", "on_issue", "on_writeback",
                "on_precommit", "on_commit", "on_flush")


class Tracer:
    def __init__(self, run_id: str = "main"):
        self.run_id = run_id
        #: Closed spans: [id, name, start, end, parent id, run id, self s].
        self.spans: List[list] = []
        #: name -> [self seconds, calls, inclusive seconds].
        self.totals: Dict[str, list] = {}
        #: name -> count recorded at a layer boundary.
        self.counts: Dict[str, float] = {}
        #: Open frames: [child seconds, span id of the nearest span].
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._next = 0

    # -- recording ---------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, span: bool = True,
             on_result: Optional[Callable] = None) -> Callable:
        """*fn* timed under *name*; ``span=False`` accumulates only."""
        cell = self.totals.setdefault(name, [0.0, 0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if span:
                tracer._next += 1
                span_id = f"{os.getpid()}.{tracer._next}"
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                cell[0] += own
                cell[1] += 1
                cell[2] += duration
                if stack:
                    stack[-1][0] += duration
                if span:
                    tracer.spans.append([span_id, name, start, end, parent,
                                         tracer.run_id, own])
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installation ------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced version until uninstall."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self.replace(owner, attr, self.wrap(name, original, **options))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value* until uninstall."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "run",
                       "self_s"],
            "spans": self.spans, "totals": self.totals,
            "counts": self.counts}))

    # -- queries -----------------------------------------------------------------
    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(name, (0.0, 0, 0.0))[0] for name in names)

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0.0, 0, 0.0))[1]

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0.0, 0, 0.0))[2]


def traced_core_class(tracer: Tracer):
    """A :class:`~repro.pipeline.Core` whose construction, run, stages and
    scheme hooks are timed by *tracer*."""
    from repro.pipeline import Core

    wrap = tracer.wrap

    def count_cycles(stats) -> None:
        tracer.count("pipeline.sim_cycles", stats.cycles)

    class TracedCore(Core):
        __init__ = wrap("pipeline.core_init", Core.__init__)
        run = wrap("pipeline.run", Core.run, on_result=count_cycles)

        def _build_stages(self, state):
            scheme = state.scheme
            scheme.tick = wrap("rename.schemes.tick", scheme.tick, span=False)
            for hook in SCHEME_HOOKS:
                setattr(scheme, hook, wrap("rename.schemes.hooks",
                                           getattr(scheme, hook), span=False))
            stages = super()._build_stages(state)
            for stage in stages.in_order:
                stage.run = wrap(f"pipeline.stages.{stage.name}", stage.run,
                                 span=False)
            return stages

    return TracedCore


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    import repro.harness.jobs as jobs
    import repro.harness.scheduler as scheduler
    import repro.harness.store as store
    import repro.staticcheck as staticcheck
    import repro.staticcheck.lints as lints
    import repro.staticcheck.memdep as memdep
    import repro.staticcheck.regions as regions
    import repro.tiered as tiered
    import repro.workloads as workloads
    from repro.frontend import Emulator
    from repro.harness import ResultStore
    from repro.workloads import Workload

    def count_emulated(trace) -> None:
        tracer.count("frontend.emulated_instr", len(trace))

    def count_warmup(snapshots) -> None:
        tracer.count("pipeline.warmup.instr",
                     max((w.instructions for w in snapshots), default=0))

    build_trace = jobs.build_trace

    def build_trace_counting_kept(*args, **kwargs):
        # A trace-cache hit emulates nothing, so it keeps nothing new.
        before = tracer.counts.get("frontend.emulated_instr", 0)
        trace = build_trace(*args, **kwargs)
        if tracer.counts.get("frontend.emulated_instr", 0) != before:
            tracer.count("frontend.kept_instr", len(trace))
        return trace

    patch = tracer.patch
    patch(Workload, "build", "workloads.build")
    patch(Emulator, "run", "frontend.emulate", on_result=count_emulated)
    tracer.replace(jobs, "build_trace", build_trace_counting_kept)
    tracer.replace(workloads, "build_trace", build_trace_counting_kept)
    patch(tiered, "pick_simpoints", "workloads.simpoint.pick")
    patch(tiered, "fast_forward", "pipeline.warmup.fast_forward",
          on_result=count_warmup)
    # Self time of the run_tiered span is what remains after picking,
    # fast-forward and the windows: the stitching of whole-run stats.
    patch(tiered, "run_tiered", "tiered.stitch")
    core = traced_core_class(tracer)
    tracer.replace(jobs, "Core", core)
    tracer.replace(tiered, "Core", core)
    patch(ResultStore, "get", "harness.store.get")
    patch(ResultStore, "put", "harness.store.put")
    patch(store, "decode_result", "harness.serialize.decode")
    patch(scheduler, "decode_result", "harness.serialize.decode")
    patch(lints, "build_cfg", "staticcheck.cfg")
    patch(memdep, "build_cfg", "staticcheck.cfg")
    patch(lints, "DataflowResult", "staticcheck.dataflow")
    patch(regions, "analyze_regions", "staticcheck.regions")
    patch(staticcheck, "analyze_regions", "staticcheck.regions")
    patch(memdep, "analyze_memdep", "staticcheck.memdep")
    for method in ("undefined_loads", "dead_stores", "region_may_alias"):
        patch(memdep.MemDepResult, method, f"staticcheck.memdep.{method}")
    patch(staticcheck, "lint_program", "staticcheck.lints")
