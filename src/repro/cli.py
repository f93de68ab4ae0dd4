"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one benchmark under one configuration and print the
  stats (IPC, stalls, release breakdown).
* ``compare`` — all four schemes side by side on one benchmark.
* ``figure`` — regenerate one of the paper's figures (fig01..fig15,
  sec44), or ``all`` of them; ``--jobs N`` shards the sweep over forked
  worker processes (which inherit the traces this process builds) and
  the persistent result store makes re-runs warm.
* ``sweep`` — run an explicit benchmark x rf-size x scheme grid through
  the parallel harness and print the IPC table.
* ``validate`` — seeded fault-injection campaign: every cell runs with
  the online invariant sanitizer attached and is differentially verified
  against the golden emulator; exits non-zero on any violation.
* ``cache`` — inspect (``info``), empty (``clear``), or garbage-collect
  (``gc --max-bytes|--max-age``: least-recently-used and age eviction,
  stale code generations first) the persistent result store
  (``~/.cache/repro`` or ``$REPRO_CACHE_DIR``).
* ``analyze`` — trace-level atomic-region analysis of a benchmark;
  ``analyze static [BENCH...]`` prints the static memory-dependence /
  ATR-opportunity table (regions, alias verdicts, forwardable loads,
  static release bound vs. dynamically realized early releases) in
  text or ``--format json``.
* ``lint`` — static analysis of kernel programs: CFG/dataflow/memory
  findings with stable rule IDs, plus (``--oracle``) the
  dynamic-vs-static ATR soundness cross-check; exits non-zero on any
  unsuppressed finding.  ``--format json`` emits machine-readable
  findings; ``--no-warn-unused-ignore`` silences the stale-suppression
  meta-finding.
* ``list`` — introspect the registries: ``repro list
  [workloads|schemes|predictors|configs|figures|lints|all]`` (plugin
  entries included; workloads list every addressable input variant).
* ``disasm`` — disassemble a benchmark's kernel program.

Every ``choices=`` list below is derived from the corresponding registry
(``SCHEMES``, ``CORE_CONFIGS``, …) — never hand-written — so registering
a new entry (in-tree or via ``REPRO_PLUGINS``) can't silently miss the
CLI layer; ``tests/test_registry.py`` asserts the derivation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: ``repro list`` categories (the registry kinds it can introspect).
LIST_CATEGORIES = ("workloads", "schemes", "predictors", "configs",
                   "figures", "lints", "all")


def _scheme_names() -> tuple:
    from .registry import load_plugins
    from .rename.schemes import SCHEMES

    load_plugins()  # plugin schemes become valid ``choices=`` too
    return SCHEMES.names()


def _config_names() -> tuple:
    from .pipeline.config import CORE_CONFIGS
    from .registry import load_plugins

    load_plugins()
    return CORE_CONFIGS.names()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative(kind):
    """argparse type: *kind* (int or float) parsed from text, >= 0."""
    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    parse.__name__ = f"non-negative {kind.__name__}"
    return parse


def _benchmark(text: str) -> str:
    """argparse type: a suite name (``mcf``, ``505.mcf_r/ref2``) resolved
    to its canonical id."""
    from .workloads import resolve

    try:
        return resolve(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _comma_list(item):
    """argparse type: comma-separated values, each parsed by *item*."""
    def parse(text: str) -> list:
        return [item(part.strip()) for part in text.split(",") if part.strip()]

    parse.__name__ = "comma-separated list"
    return parse


def _usage_error(command: str, message: str) -> int:
    print(f"{command}: {message}", file=sys.stderr)
    return 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("benchmark", type=_benchmark,
                        help="suite name, e.g. mcf or 505.mcf_r")
    parser.add_argument("-n", "--instructions", type=_positive_int, default=10_000,
                        help="dynamic trace length (default 10000)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATR (MICRO 2025) reproduction: simulate, analyze, "
                    "and regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scheme_names = list(_scheme_names())
    all_schemes_csv = ",".join(scheme_names)

    run = sub.add_parser("run", help="simulate one benchmark")
    _add_common(run)
    run.add_argument("-s", "--scheme", default="atr", choices=scheme_names)
    run.add_argument("-r", "--rf-size", type=int, default=None,
                     help="register file size (default 64, or the "
                          "--config preset's size)")
    run.add_argument("-c", "--config", default=None,
                     choices=list(_config_names()),
                     help="named machine preset (repro list configs); "
                          "-s/-r/-d still override on top of it")
    run.add_argument("-d", "--redefine-delay", type=_non_negative(int), default=0)
    run.add_argument("--tier", default="detailed",
                     choices=["detailed", "tiered"],
                     help="simulation tier: full-trace detailed (default) "
                          "or fast-forward + SimPoint-weighted windows")
    run.add_argument("--interval", type=_positive_int, default=2_000,
                     help="SimPoint interval for --tier tiered "
                          "(default 2000)")
    run.add_argument("--windows", type=_positive_int, default=6,
                     help="max detailed windows for --tier tiered "
                          "(default 6)")

    compare = sub.add_parser("compare", help="all four schemes side by side")
    _add_common(compare)
    compare.add_argument("-r", "--rf-size", type=int, default=64)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", help="fig01|fig04|fig06|fig10|fig11|fig12|"
                                     "fig13|fig14|fig15|sec44|all")
    figure.add_argument("-n", "--instructions", type=_positive_int, default=None)
    figure.add_argument("--quick", action="store_true",
                        help="2 int + 2 fp benchmarks only")
    figure.add_argument("-j", "--jobs", type=_positive_int, default=None,
                        help="worker processes for the sweep "
                             "(default: all cores)")
    figure.add_argument("-v", "--verbose", action="store_true",
                        help="per-cell progress lines on stderr")

    swp = sub.add_parser("sweep", help="run a benchmark x rf x scheme grid "
                                       "through the parallel harness")
    swp.add_argument("-b", "--benchmarks", type=_comma_list(_benchmark),
                     default="mcf,deepsjeng,bwaves,namd",
                     help="comma-separated suite names")
    swp.add_argument("-r", "--rf-sizes", type=_comma_list(_positive_int),
                     default="64", help="comma-separated register file sizes")
    swp.add_argument("-s", "--schemes", default=all_schemes_csv,
                     help="comma-separated release schemes "
                          "(default: every registered scheme)")
    swp.add_argument("-n", "--instructions", type=_positive_int, default=None)
    swp.add_argument("-d", "--redefine-delay", type=_non_negative(int), default=0)
    swp.add_argument("-j", "--jobs", type=_positive_int, default=None,
                     help="worker processes (default: all cores)")
    swp.add_argument("-v", "--verbose", action="store_true",
                     help="per-cell progress lines on stderr")

    val = sub.add_parser(
        "validate",
        help="seeded fault-injection campaign with the invariant sanitizer")
    val.add_argument("-b", "--benchmarks", type=_comma_list(_benchmark),
                     default="mcf,deepsjeng,bwaves,namd",
                     help="comma-separated suite names")
    val.add_argument("-s", "--schemes", default=all_schemes_csv,
                     help="comma-separated release schemes "
                          "(default: every registered scheme)")
    val.add_argument("-r", "--rf-sizes", type=_comma_list(_positive_int),
                     default="28,40", help="comma-separated register file sizes")
    val.add_argument("--seeds", type=_positive_int, default=4,
                     help="chaos seeds per cell (default 4)")
    val.add_argument("-n", "--instructions", type=_positive_int, default=3000,
                     help="dynamic trace length per cell (default 3000)")
    val.add_argument("-i", "--intensity", default="medium",
                     choices=["low", "medium", "high"],
                     help="fault-injection intensity (default medium)")
    val.add_argument("-d", "--redefine-delay", type=_non_negative(int), default=0)
    val.add_argument("--quick", action="store_true",
                     help="small smoke campaign: 2 benchmarks, 1 rf size, "
                          "2 seeds, 1500 instructions")
    val.add_argument("-j", "--jobs", type=_positive_int, default=None,
                     help="worker processes (default: all cores)")
    val.add_argument("-v", "--verbose", action="store_true",
                     help="per-cell progress lines on stderr")

    cache = sub.add_parser("cache", help="manage the persistent result store")
    cache.add_argument("action", choices=["info", "clear", "gc"])
    cache.add_argument("--max-bytes", type=_non_negative(int), default=None,
                       help="gc: evict least-recently-used entries (stale "
                            "generations first) until the cache fits")
    cache.add_argument("--max-age", type=_non_negative(float), default=None,
                       help="gc: evict entries not read/written for this "
                            "many seconds")

    analyze = sub.add_parser(
        "analyze",
        help="atomic-region analysis; `analyze static [BENCH...]` prints "
             "the static memory-dependence / ATR-opportunity table")
    analyze.add_argument(
        "benchmark", nargs="+",
        help="suite name (e.g. mcf), or `static` followed by benchmark "
             "names (none = the whole suite)")
    analyze.add_argument("-n", "--instructions", type=_positive_int, default=10_000,
                         help="dynamic trace length (default 10000)")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text", dest="fmt",
                         help="output format of the static table "
                              "(default text)")

    lint = sub.add_parser(
        "lint",
        help="static analysis of kernel programs (CFG/dataflow/memory "
             "lints, optional dynamic-vs-static ATR soundness oracle)")
    lint.add_argument("benchmarks", nargs="*",
                      help="suite names to lint (e.g. mcf 505.mcf_r)")
    lint.add_argument("--all", action="store_true",
                      help="lint every benchmark in the suite")
    lint.add_argument("--oracle", action="store_true",
                      help="also run each kernel through the pipeline and "
                           "cross-check every ATR release against the "
                           "static atomic-region proof")
    lint.add_argument("-n", "--instructions", type=_positive_int, default=1200,
                      help="oracle trace length (default 1200)")
    lint.add_argument("-v", "--verbose", action="store_true",
                      help="show suppressed findings and per-kernel stats")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", dest="fmt",
                      help="findings output format (default text)")
    lint.add_argument("--no-warn-unused-ignore", action="store_true",
                      help="do not flag lint: ignore[...] markers that "
                           "suppress nothing")

    lst = sub.add_parser(
        "list", help="introspect a registry (workloads include variants)")
    lst.add_argument("what", nargs="?", default="workloads",
                     choices=list(LIST_CATEGORIES),
                     help="which registry to list (default workloads)")

    disasm = sub.add_parser("disasm", help="disassemble a kernel")
    disasm.add_argument("benchmark", type=_benchmark)
    return parser


def _cmd_run(args) -> int:
    from .harness import CellSpec, TierPolicy, simulate_cell
    from .pipeline import core_config, golden_cove_config

    name = args.benchmark
    try:
        if args.config is not None:
            config = core_config(args.config)
            config = config.with_scheme(args.scheme, args.redefine_delay)
            if args.rf_size is not None:
                config = config.with_rf_size(args.rf_size)
            config.validate()
        else:
            config = golden_cove_config(
                rf_size=args.rf_size if args.rf_size is not None else 64,
                scheme=args.scheme, redefine_delay=args.redefine_delay)
    except ValueError as exc:
        return _usage_error("run", str(exc))
    args.rf_size = config.int_rf_size  # for the summary lines below
    tier = TierPolicy(mode=args.tier, interval=args.interval,
                      max_windows=args.windows)
    cell = simulate_cell(
        CellSpec(name, args.rf_size, args.scheme, args.instructions,
                 redefine_delay=args.redefine_delay, tier=tier),
        config=config)
    stats, s = cell.stats, cell.scheme_stats
    if cell.tier_info is not None:
        windows = cell.tier_info["windows"]
        print(f"{name}: ~{stats.committed} instructions in ~{stats.cycles} "
              f"cycles (IPC {stats.ipc:.3f}, tiered estimate)")
        print(f"  tiered: {len(windows)} windows, "
              f"{cell.tier_info['detailed_instructions']} detailed instructions "
              f"of {cell.tier_info['represented_instructions']} represented, "
              f"warmup to {cell.tier_info['warmup_instructions']}")
        for w in windows:
            print(f"    window @{w['start']:>7} len {w['length']:>6} "
                  f"weight {w['weight']:.3f}  IPC {w['ipc']:.3f}")
    else:
        print(f"{name}: {stats.committed} instructions in {stats.cycles} "
              f"cycles (IPC {stats.ipc:.3f})")
    print(f"  scheme {args.scheme} @ {args.rf_size} regs, "
          f"redefine delay {args.redefine_delay}")
    print(f"  releases: commit {s.commit_frees}, atr {s.atr_frees}, "
          f"nonspec {s.nonspec_frees}, flush {s.flush_frees}")
    print(f"  flushes {stats.flushes} ({stats.flushed_instructions} squashed, "
          f"{stats.wrong_path_renamed} wrong-path renamed)")
    print(f"  rename stalls: freelist {stats.stall_freelist}, "
          f"rob {stats.stall_rob}, rs {stats.stall_rs}")
    return 0


def _cmd_compare(args) -> int:
    from .harness import CellSpec, simulate_cell
    from .pipeline import golden_cove_config

    name = args.benchmark
    try:
        golden_cove_config(rf_size=args.rf_size)
    except ValueError as exc:
        return _usage_error("compare", str(exc))
    cells = [simulate_cell(CellSpec(name, args.rf_size, scheme,
                                    args.instructions))
             for scheme in _scheme_names()]
    print(f"{name} @ {args.rf_size} registers, "
          f"{cells[0].stats.committed} instructions")
    print(f"{'scheme':12} {'IPC':>7} {'vs base':>8} {'early frees':>12}")
    base_ipc = cells[0].ipc
    for cell in cells:
        gain = cell.ipc / base_ipc - 1
        print(f"{cell.scheme:12} {cell.ipc:7.3f} {gain:+7.2%} "
              f"{cell.scheme_stats.early_frees:12}")
    return 0


def _figure_kwargs(module, args) -> dict:
    """Per-figure ``run()`` kwargs from CLI flags, matched to its signature.

    The instruction count is threaded through as a parameter, so one
    command cannot leak scale into the next (or poison cache keys)
    through process-global state.
    """
    import inspect

    params = inspect.signature(module.run).parameters
    kwargs = {}
    if args.instructions is not None and "instructions" in params:
        kwargs["instructions"] = args.instructions
    if "jobs" in params:
        kwargs["jobs"] = args.jobs
    if args.quick:
        int2 = ["505.mcf_r", "531.deepsjeng_r"]
        fp2 = ["503.bwaves_r", "508.namd_r"]
        if "int_benchmarks" in params:
            kwargs["int_benchmarks"] = int2
            kwargs["fp_benchmarks"] = fp2
        elif "benchmarks" in params:
            kwargs["benchmarks"] = int2 + fp2
    return kwargs


def _sweep_progress(verbose: bool):
    from .harness import SweepProgress

    return SweepProgress(stream=sys.stderr, verbose=verbose)


def _cmd_figure(args) -> int:
    from .experiments import ALL_FIGURES
    from .harness import SweepError, set_default_progress

    if args.name == "all":
        names = list(ALL_FIGURES)
    elif args.name in ALL_FIGURES:
        names = [args.name]
    else:
        print(f"unknown figure {args.name!r}; known: "
              f"{', '.join(ALL_FIGURES)}, all", file=sys.stderr)
        return 2

    progress = _sweep_progress(args.verbose)
    set_default_progress(progress)
    failed = []
    try:
        for name in names:
            module = ALL_FIGURES[name]
            if len(names) > 1:
                print(f"=== {name} ===")
            try:
                result = module.run(**_figure_kwargs(module, args))
            except SweepError as error:
                failed.append(name)
                print(f"{name}: {error}", file=sys.stderr)
                continue
            print(result.render())
            if len(names) > 1:
                print()
    finally:
        set_default_progress(None)
    progress.emit_summary()
    if failed:
        print(f"FAILED figures: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    from .experiments.report import format_table
    from .experiments.runner import cell_spec
    from .harness import sweep

    benchmarks = args.benchmarks
    rf_sizes = args.rf_sizes
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    specs = {
        (benchmark, rf_size, scheme): cell_spec(
            benchmark, rf_size, scheme, args.instructions,
            redefine_delay=args.redefine_delay)
        for benchmark in benchmarks
        for rf_size in rf_sizes
        for scheme in schemes
    }
    progress = _sweep_progress(args.verbose)
    report = sweep(list(specs.values()), jobs=args.jobs, progress=progress)
    rows = []
    for benchmark in benchmarks:
        for rf_size in rf_sizes:
            row = [benchmark, rf_size]
            for scheme in schemes:
                cell = report.results.get(specs[benchmark, rf_size, scheme])
                row.append(f"{cell.ipc:.3f}" if cell is not None else "FAIL")
            rows.append(row)
    print(format_table(["benchmark", "rf"] + schemes, rows,
                       title="sweep: IPC per cell"))
    progress.emit_summary()
    if report.failures:
        for failure in report.failures:
            print(f"failed: {failure.describe()}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    from .validate import campaign_specs, run_campaign

    if args.quick:
        benchmarks = ["505.mcf_r", "503.bwaves_r"]
        rf_sizes = [28]
        seeds = range(2)
        instructions = 1500
    else:
        benchmarks = args.benchmarks
        rf_sizes = args.rf_sizes
        seeds = range(args.seeds)
        instructions = args.instructions
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]

    specs = campaign_specs(
        benchmarks=benchmarks,
        schemes=schemes,
        rf_sizes=rf_sizes,
        seeds=list(seeds),
        instructions=instructions,
        intensity=args.intensity,
        redefine_delay=args.redefine_delay,
    )
    print(f"validate: {len(specs)} chaos cells "
          f"({args.intensity} intensity, {instructions} instructions/cell)")
    progress = _sweep_progress(args.verbose)
    report = run_campaign(specs, jobs=args.jobs, progress=progress)
    print(report.render())
    progress.emit_summary()
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    from .harness import ResultStore

    store = ResultStore()
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        return 0
    if args.action == "gc":
        from .harness.store import run_gc

        if args.max_bytes is None and args.max_age is None:
            print("cache gc: pass --max-bytes and/or --max-age",
                  file=sys.stderr)
            return 2
        report = run_gc(store, max_bytes=args.max_bytes,
                        max_age=args.max_age)
        print(report.render())
        return 0
    info = store.info()
    print(f"cache root:       {info['root']}")
    print(f"code fingerprint: {info['fingerprint'][:16]}")
    print(f"entries:          {info['entries']} ({info['bytes']} bytes)")
    for generation in info["generations"]:
        marker = "  <- current" if generation["current"] else ""
        print(f"  {generation['name']}: {generation['entries']} entries, "
              f"{generation['bytes']} bytes{marker}")
    if not info["generations"]:
        print("  (empty)")
    return 0


def _cmd_analyze(args) -> int:
    from .workloads import resolve

    static = args.benchmark[0] == "static"
    requested = args.benchmark[1:] if static else args.benchmark
    if not static and len(requested) != 1:
        return _usage_error("analyze", "exactly one benchmark (or `analyze "
                                       "static [BENCH...]`)")
    try:
        names = [resolve(b) for b in requested]
    except KeyError as exc:
        return _usage_error("analyze", exc.args[0])
    if static:
        return _cmd_analyze_static(args, names)

    from .analysis import classify_regions
    from .workloads import build_trace

    name = names[0]
    trace = build_trace(name, args.instructions)
    report = classify_regions(trace)
    print(f"{name}: {len(trace)} instructions, "
          f"{report.total_allocations} register allocations")
    for kind in ("non_branch", "non_except", "atomic"):
        print(f"  {kind:>11}: {report.ratio(kind):6.2%}")
    print(f"  mean consumers per atomic region: {report.mean_consumers():.2f}")
    return 0


def _static_analysis_row(name: str, instructions: int) -> dict:
    """One benchmark's static memory/opportunity summary + the dynamic
    committed-path realized releases the static bound must dominate."""
    from .experiments import run_cell
    from .staticcheck import (
        analyze_memdep,
        analyze_pressure,
        analyze_regions,
    )
    from .workloads import build_trace, builder_for

    program = builder_for(name)(4)
    memdep = analyze_memdep(program)
    regions = analyze_regions(program)
    pressure = analyze_pressure(program, regions=regions)
    mem_regions = memdep.classify_regions(regions)
    alias = memdep.alias_counts()
    counts = regions.counts()

    trace = build_trace(name, instructions)
    static_bound = pressure.trace_bound(e.pc for e in trace.entries)

    cell = run_cell(name, 64, "atr", instructions,
                    record_register_events=True)
    realized = sum(1 for record in (cell.event_records or [])
                   if record.early_release_cycle is not None)
    return {
        "benchmark": name,
        "instructions": instructions,
        "regions": {"closed": counts["closed"], "atomic": counts["atomic"],
                    "memory_classified": len(mem_regions)},
        "alias_pairs": alias,
        "forwardable_loads": sum(len(r.forwardable) for r in mem_regions),
        "safe_reorder": sum(len(r.safe_reorder) for r in mem_regions),
        "blocked_pairs": sum(len(r.blocked_pairs) for r in mem_regions),
        "dependence_edges": len(memdep.dependence_edges()),
        "static_bound": static_bound,
        "dynamic_realized": realized,
        "bound_ok": realized <= static_bound,
    }


def _cmd_analyze_static(args, names: List[str]) -> int:
    import json

    from .workloads import workload_names

    if not names:
        names = list(workload_names(variants=True))

    rows = [_static_analysis_row(name, args.instructions) for name in names]
    violations = [row for row in rows if not row["bound_ok"]]

    if args.fmt == "json":
        print(json.dumps({"instructions": args.instructions,
                          "benchmarks": rows,
                          "bound_violations": len(violations)}, indent=2))
    else:
        header = (f"{'benchmark':<24} {'regions':>7} {'atomic':>6} "
                  f"{'must':>5} {'may':>5} {'no':>5} {'fwd':>4} "
                  f"{'bound':>7} {'dynamic':>8}")
        print(header)
        print("-" * len(header))
        for row in rows:
            alias = row["alias_pairs"]
            mark = "" if row["bound_ok"] else "  VIOLATION"
            print(f"{row['benchmark']:<24} "
                  f"{row['regions']['closed']:>7} "
                  f"{row['regions']['atomic']:>6} "
                  f"{alias['must']:>5} {alias['may']:>5} {alias['no']:>5} "
                  f"{row['forwardable_loads']:>4} "
                  f"{row['static_bound']:>7} "
                  f"{row['dynamic_realized']:>8}{mark}")
        print(f"\nstatic ATR bound vs. committed-path realized releases "
              f"(atr, rf=64, n={args.instructions}); "
              f"{len(violations)} violation(s)")
    if violations:
        print(f"analyze: static bound violated on "
              f"{len(violations)} benchmark(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    import json

    from .staticcheck import analyze_regions, check_trace, lint_program
    from .workloads import build_trace, builder_for, resolve

    if args.all:
        from .workloads import workload_names

        names = list(workload_names(variants=True))
    elif args.benchmarks:
        try:
            names = [resolve(b) for b in args.benchmarks]
        except KeyError as exc:
            return _usage_error("lint", exc.args[0])
    else:
        return _usage_error("lint", "name benchmarks or pass --all")

    warn_unused = not args.no_warn_unused_ignore
    failed = 0
    json_out = []
    for name in names:
        program = builder_for(name)(4)
        report = lint_program(program, warn_unused_ignore=warn_unused)
        static = analyze_regions(program)
        counts = static.counts()
        if args.fmt == "json":
            json_out.append({
                "benchmark": name,
                "ok": report.ok,
                "atomic_windows": counts["atomic"],
                "closed_windows": counts["closed"],
                "findings": [
                    {"rule": f.rule, "severity": f.severity.value,
                     "pc": f.pc, "label": program.label_of(f.pc),
                     "message": f.message, "suppressed": f.suppressed}
                    for f in report.findings
                ],
            })
        else:
            status = ("clean" if report.ok
                      else f"{len(report.active)} finding(s)")
            if report.suppressed:
                status += f" (+{len(report.suppressed)} suppressed)"
            print(f"{name}: {status}; {counts['atomic']}/{counts['closed']} "
                  f"closed windows statically atomic")
            shown = report.findings if args.verbose else report.active
            for finding in shown:
                print(finding.render(program))
        if not report.ok:
            failed += 1
        if args.oracle:
            trace = build_trace(name, args.instructions)
            for scheme in ("atr", "combined"):
                oracle = check_trace(trace, scheme=scheme, report=static)
                if args.fmt != "json":
                    print(f"  oracle {oracle.render()}")
                if not oracle.ok:
                    failed += 1
    if args.fmt == "json":
        print(json.dumps({"benchmarks": json_out,
                          "failed": failed}, indent=2))
    if failed:
        print(f"lint: {failed} benchmark/oracle failure(s)", file=sys.stderr)
    return 1 if failed else 0


def _list_workloads() -> None:
    from .registry import load_plugins
    from .workloads import WORKLOADS, workload_names

    load_plugins()
    names = workload_names(variants=True)
    bases = WORKLOADS.names()
    print(f"workloads ({len(bases)} benchmarks, "
          f"{len(names)} addressable refs):")
    for base in bases:
        entry = WORKLOADS.get(base)
        print(f"  {base:<24} {entry.cls}")
        for variant in getattr(entry, "variants", ()):
            qualified = f"{base}/{variant.name}"
            note = f"  -- {variant.note}" if variant.note else ""
            print(f"  {qualified:<24} {entry.cls}{note}")


def _list_registry(title: str, registry) -> None:
    from .registry import load_plugins

    load_plugins()
    print(f"{title} ({len(registry)}):")
    aliases = registry.aliases()
    for name in registry.names():
        alias_text = ", ".join(a for a, t in aliases.items() if t == name)
        print(f"  {name}" + (f"  (aka {alias_text})" if alias_text else ""))


def _cmd_list(args) -> int:
    what = getattr(args, "what", "workloads")
    if what in ("workloads", "all"):
        _list_workloads()
    if what in ("schemes", "all"):
        from .rename.schemes import SCHEMES

        _list_registry("schemes", SCHEMES)
    if what in ("predictors", "all"):
        from .branch import PREDICTORS

        _list_registry("predictors", PREDICTORS)
    if what in ("configs", "all"):
        from .pipeline.config import CORE_CONFIGS

        _list_registry("configs", CORE_CONFIGS)
    if what in ("figures", "all"):
        from .experiments import FIGURES

        _list_registry("figures", FIGURES)
    if what in ("lints", "all"):
        from .staticcheck import META_RULES, RULES

        print(f"lints ({len(RULES)} rules, {len(META_RULES)} meta):")
        for rule, (severity, description) in RULES.items():
            print(f"  {rule:<26} {severity.value:<8} {description}")
        for rule, (severity, description) in META_RULES.items():
            print(f"  {rule:<26} {severity.value:<8} {description} (meta)")
    return 0


def _cmd_disasm(args) -> int:
    from .isa import disassemble
    from .workloads import builder_for

    program = builder_for(args.benchmark)(iterations=2)
    print(disassemble(program))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "cache": _cmd_cache,
    "analyze": _cmd_analyze,
    "lint": _cmd_lint,
    "list": _cmd_list,
    "disasm": _cmd_disasm,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
