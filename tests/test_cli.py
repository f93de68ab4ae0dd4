"""CLI smoke tests (``python -m repro ...``)."""

import re

import pytest

from repro.cli import build_parser, main
from repro.harness import CellSpec, TierPolicy, simulate_cell
from repro.rename.schemes import SCHEMES


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "505.mcf_r" in out and "554.roms_r" in out
    # variant refs are addressable and listed alongside their base
    assert "505.mcf_r/ref2" in out


def test_list_categories(capsys):
    assert main(["list", "schemes"]) == 0
    out = capsys.readouterr().out
    assert "atr" in out and "combined" in out

    assert main(["list", "configs"]) == 0
    out = capsys.readouterr().out
    assert "golden_cove" in out and "golden_cove_rf64" in out

    assert main(["list", "predictors"]) == 0
    assert "tage" in capsys.readouterr().out

    assert main(["list", "figures"]) == 0
    assert "fig06" in capsys.readouterr().out


def test_run_variant(capsys):
    assert main(["run", "mcf/ref2", "-n", "1500", "-r", "64", "-s", "atr"]) == 0
    out = capsys.readouterr().out
    assert "505.mcf_r/ref2" in out and "IPC" in out


def test_run_config_preset(capsys):
    assert main(["run", "xz", "-n", "1500", "-c", "golden_cove_rf64"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "@ 64 regs" in out


def test_run_config_preset_composes_with_rf_override(capsys):
    # -c and -r compose: -r overrides the preset's register-file size
    assert main(["run", "xz", "-n", "1500", "-c", "golden_cove", "-r", "72"]) == 0
    assert "@ 72 regs" in capsys.readouterr().out


def test_run_tiered(capsys):
    assert main(["run", "mcf", "--tier", "tiered", "-n", "6000",
                 "--interval", "1000", "--windows", "3"]) == 0
    out = capsys.readouterr().out
    assert "tiered estimate" in out and "of 6000 represented" in out
    assert 1 <= out.count("window @") <= 3


def test_disasm(capsys):
    assert main(["disasm", "xz"]) == 0
    out = capsys.readouterr().out
    assert "ld " in out and "bne" in out


def test_run(capsys):
    assert main(["run", "deepsjeng", "-n", "1500", "-r", "64", "-s", "atr"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "releases:" in out


def test_compare(capsys):
    assert main(["compare", "deepsjeng", "-n", "1500", "-r", "64"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "combined" in out


def _releases_line(cell) -> str:
    s = cell.scheme_stats
    return (f"releases: commit {s.commit_frees}, atr {s.atr_frees}, "
            f"nonspec {s.nonspec_frees}, flush {s.flush_frees}")


class TestPrintsWhatSimulateCellComputes:
    """`run` and `compare` print the cell `simulate_cell` computes for
    the same spec: cycles, committed instructions, release counts."""

    def test_run_detailed(self, capsys):
        assert main(["run", "deepsjeng", "-n", "1500", "-r", "64",
                     "-s", "atr"]) == 0
        out = capsys.readouterr().out
        cell = simulate_cell(CellSpec("531.deepsjeng_r", 64, "atr", 1500))
        assert (f"531.deepsjeng_r: {cell.stats.committed} instructions in "
                f"{cell.stats.cycles} cycles (IPC {cell.ipc:.3f})") in out
        assert _releases_line(cell) in out

    def test_run_tiered(self, capsys):
        assert main(["run", "mcf", "--tier", "tiered", "-n", "6000",
                     "--interval", "1000", "--windows", "3"]) == 0
        out = capsys.readouterr().out
        tier = TierPolicy("tiered", interval=1000, max_windows=3)
        cell = simulate_cell(CellSpec("505.mcf_r", 64, "atr", 6000, tier=tier))
        assert (f"505.mcf_r: ~{cell.stats.committed} instructions in "
                f"~{cell.stats.cycles} cycles") in out
        assert _releases_line(cell) in out
        windows = cell.tier_info["windows"]
        assert re.findall(r"window @ *(\d+) .*IPC (\S+)", out) == [
            (str(w["start"]), f"{w['ipc']:.3f}") for w in windows]

    def test_compare(self, capsys):
        assert main(["compare", "deepsjeng", "-n", "1500", "-r", "64"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = [simulate_cell(CellSpec("531.deepsjeng_r", 64, scheme, 1500))
                 for scheme in SCHEMES.names()]
        assert lines[0] == (f"531.deepsjeng_r @ 64 registers, "
                            f"{cells[0].stats.committed} instructions")
        rows = [line.split() for line in lines[2:]]
        assert [(row[0], row[1], int(row[3])) for row in rows] == [
            (cell.scheme, f"{cell.ipc:.3f}", cell.scheme_stats.early_frees)
            for cell in cells]


def test_analyze(capsys):
    assert main(["analyze", "omnetpp", "-n", "1500"]) == 0
    out = capsys.readouterr().out
    assert "atomic" in out


def test_figure_quick(capsys):
    assert main(["figure", "fig06", "-n", "1000", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "atomic" in out


def test_figure_sec44(capsys):
    assert main(["figure", "sec44"]) == 0
    assert "gates" in capsys.readouterr().out


def test_figure_unknown(capsys):
    assert main(["figure", "fig99"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cache_info_reports_layout(capsys):
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "cache root:" in out and "code fingerprint:" in out


def test_cache_gc_requires_a_limit(capsys):
    assert main(["cache", "gc"]) == 2
    assert "--max-bytes" in capsys.readouterr().err


def test_cache_gc_max_bytes_zero(capsys, tmp_path, monkeypatch):
    # Isolated root: gc must not wipe the session-shared warm cache.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["cache", "gc", "--max-bytes", "0"]) == 0
    assert "cache gc: removed" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "mcf", "-n", "0"],
    ["run", "mcf", "-n", "-5"],
    ["compare", "mcf", "-n", "0"],
    ["analyze", "mcf", "-n", "0"],
    ["figure", "fig06", "--quick", "-n", "0"],
    ["sweep", "-b", "mcf", "-s", "atr", "-n", "-1"],
    ["validate", "--quick", "-n", "0"],
    ["lint", "mcf", "--oracle", "-n", "0"],
])
def test_non_positive_instructions_rejected(capsys, argv):
    """A non-positive -n used to simulate nothing and exit 0 (figure
    read 0 as unset and ran at its default length instead)."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["run", "bogus"], "unknown benchmark 'bogus'"),
    (["compare", "bogus"], "unknown benchmark 'bogus'"),
    (["analyze", "bogus"], "analyze: ambiguous or unknown benchmark 'bogus'"),
    (["disasm", "bogus"], "unknown benchmark 'bogus'"),
    (["sweep", "-b", "mcf,bogus"], "unknown benchmark 'bogus'"),
    (["validate", "-b", "bogus"], "unknown benchmark 'bogus'"),
    (["sweep", "-r", "abc"], "invalid comma-separated list value: 'abc'"),
    (["validate", "-r", "abc"], "invalid comma-separated list value: 'abc'"),
    (["sweep", "-r", "64,0"], "must be >= 1, got 0"),
    (["run", "mcf", "-r", "20"], "run: int_rf_size 20 too small"),
    (["compare", "mcf", "-r", "10"], "compare: int_rf_size 10 too small"),
    (["run", "mcf", "-d", "-3"], "must be >= 0, got -3"),
    (["sweep", "-d", "-1"], "must be >= 0, got -1"),
], ids=["run-benchmark", "compare-benchmark", "analyze-benchmark",
        "disasm-benchmark", "sweep-benchmarks", "validate-benchmarks",
        "sweep-rf-text", "validate-rf-text", "sweep-rf-zero",
        "run-rf-too-small", "compare-rf-too-small", "run-negative-delay",
        "sweep-negative-delay"])
def test_bad_input_is_usage_error(capsys, argv, message):
    """Each of these used to exit 1 with a traceback."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("limit", [["--max-bytes", "-1"], ["--max-age", "-5"]])
def test_cache_gc_rejects_negative_limit(capsys, tmp_path, monkeypatch, limit):
    """A negative limit used to read as "fits nothing" and wipe the cache."""
    from repro.harness import CellSpec, ResultStore

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = ResultStore()
    store.put(CellSpec("505.mcf_r", 64, "atr", 500), {"kept": True})
    with pytest.raises(SystemExit) as exit_info:
        main(["cache", "gc", *limit])
    assert exit_info.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert store.info()["entries"] == 1
