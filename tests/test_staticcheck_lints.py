"""Lint rules, inline suppression, builder validation, and the CLI."""

import json

import pytest

from repro.cli import main
from repro.isa import (
    Instruction,
    Opcode,
    Program,
    ProgramBuilder,
    ProgramValidationError,
    ireg,
    vreg,
)
from repro.staticcheck import (
    META_RULES,
    RULES,
    Severity,
    lint_benchmark,
    lint_program,
)
from repro.staticcheck.lints import suppressed_rules
from repro.workloads import ALL_BENCHMARKS

r = ireg
v = vreg


def _rules_fired(report):
    return {f.rule for f in report.active}


class TestRules:
    def test_bad_target(self):
        prog = Program(instructions=(
            Instruction(Opcode.JMP, target=99),
            Instruction(Opcode.HALT),
        ))
        report = lint_program(prog)
        assert "cfg-bad-target" in _rules_fired(report)
        assert not report.ok and report.errors

    def test_fallthrough_end(self):
        prog = Program(instructions=(
            Instruction(Opcode.MOVI, dests=(r(1),), imm=3),
        ))
        report = lint_program(prog)
        assert "cfg-fallthrough-end" in _rules_fired(report)
        assert report.errors

    def test_call_ret_imbalance(self):
        b = ProgramBuilder()
        b.movi(r(1), 1)
        b.ret()                      # no CALL on any path from entry
        report = lint_program(b.build())
        findings = report.by_rule("cfg-call-ret-imbalance")
        assert findings and findings[0].pc == 1
        assert report.errors

    def test_balanced_call_is_clean(self):
        b = ProgramBuilder()
        b.call("fn")
        b.halt()
        b.label("fn")
        b.movi(r(1), 1)
        b.ret()
        report = lint_program(b.build())
        assert not report.by_rule("cfg-call-ret-imbalance")

    def test_unreachable(self):
        b = ProgramBuilder()
        b.jmp("end")
        b.movi(r(1), 1)              # dead
        b.label("end")
        b.halt()
        report = lint_program(b.build())
        assert "cfg-unreachable" in _rules_fired(report)
        # Warning severity: the report is not ok, but has no errors.
        assert not report.ok and not report.errors

    def test_trailing_generated_halt_is_exempt(self):
        """The builder's auto-appended terminator HALT after a RET has no
        source line to suppress on; it must not fire cfg-unreachable."""
        b = ProgramBuilder()
        b.call("fn")
        b.halt()
        b.label("fn")
        b.ret()                      # build() appends an unreachable HALT
        report = lint_program(b.build())
        assert not report.by_rule("cfg-unreachable")

    def test_undef_read(self):
        b = ProgramBuilder()
        b.test(r(4), r(4))
        b.beq("skip")
        b.movi(r(3), 1)
        b.label("skip")
        b.add(r(5), r(3), r(3))      # r3 undefined when the branch is taken
        b.halt()
        report = lint_program(b.build())
        pcs = {f.pc for f in report.by_rule("df-undef-read")}
        assert 3 in pcs

    def test_dead_store(self):
        b = ProgramBuilder()
        b.movi(r(1), 1)              # dead: unconditionally redefined
        b.movi(r(1), 2)
        b.halt()
        report = lint_program(b.build())
        assert [f.pc for f in report.by_rule("df-dead-store")] == [0]

    def test_every_rule_has_severity_and_description(self):
        for rule, (severity, description) in RULES.items():
            assert isinstance(severity, Severity)
            assert description
        for rule, (severity, description) in META_RULES.items():
            assert isinstance(severity, Severity) and description
            assert rule not in RULES


class TestMemoryRules:
    def test_mem_undef_load(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x1000)
        b.ld(r(2), r(1), 0)      # nothing initializes 0x1000
        b.halt()
        report = lint_program(b.build())
        findings = report.by_rule("mem-undef-load")
        assert [f.pc for f in findings] == [1]

    def test_mem_dead_store(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.movi(r(2), 7)
        b.st(r(2), r(1), 0)      # pc 2: overwritten before any observer
        b.st(r(2), r(1), 0)
        b.halt()
        report = lint_program(b.build())
        assert [f.pc for f in report.by_rule("mem-dead-store")] == [2]

    def test_mem_overlap_partial(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.movi(r(2), 0x100)
        b.vld(v(1), r(2), 0)     # pc 2
        b.vst(v(1), r(1), 0)     # pc 3: [0x40, 0x60)
        b.ld(r(3), r(1), 28)     # pc 4: [0x5c, 0x64) — straddles the end
        b.halt()
        b.words(0x100, range(4))  # feed the vld
        report = lint_program(b.build())
        findings = report.by_rule("mem-overlap-partial")
        assert [f.pc for f in findings] == [4]
        assert "neither covers the other" in findings[0].message

    def test_mem_aliased_in_region(self):
        """A store and an unknown-index load off the same loaded pointer,
        inside one atomic-but-for-memory window."""
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.ld(r(2), r(1), 0)      # p (symbolic)
        b.ld(r(3), r(1), 8)      # unknown index
        b.movi(r(4), 0x38)
        b.and_(r(5), r(3), r(4))
        b.add(r(6), r(2), r(5))  # p + masked index
        b.movi(r(7), 1)          # window opens
        b.st(r(7), r(2), 0)      # pc 7
        b.ld(r(8), r(6), 0)      # pc 8: may alias the store
        b.movi(r(7), 2)          # window closes
        b.halt()
        b.words(0x40, [0x2000, 3])
        report = lint_program(b.build())
        findings = report.by_rule("mem-aliased-in-region")
        assert [f.pc for f in findings] == [8]
        assert "same loaded pointer" in findings[0].message

    def test_mem_rule_is_suppressible(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.movi(r(2), 7)
        b.st(r(2), r(1), 0)
        b.lint_ignore("mem-dead-store")
        b.st(r(2), r(1), 0)
        b.halt()
        report = lint_program(b.build())
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["mem-dead-store"]


class TestDataflowEdgeCases:
    """FLAGS and VEC registers flow through the same def/use lattice as
    the integer file."""

    def test_branch_without_compare_reads_undefined_flags(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 1)
        b.beq("end")             # FLAGS never written on this path
        b.movi(r(2), 2)
        b.label("end")
        b.halt()
        report = lint_program(b.build())
        findings = report.by_rule("df-undef-read")
        assert [f.pc for f in findings] == [1]
        assert "flags" in findings[0].message

    def test_flags_redefined_without_branch_is_dead(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 1)
        b.cmp(r(1), r(1))        # pc 1: FLAGS overwritten before any read
        b.cmp(r(1), r(1))
        b.beq("end")
        b.label("end")
        b.halt()
        report = lint_program(b.build())
        assert [f.pc for f in report.by_rule("df-dead-store")] == [1]

    def test_vec_redefinition_is_dead(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x100)
        b.vld(v(1), r(1), 0)     # pc 1: v1 redefined before any use
        b.vld(v(1), r(1), 0)
        b.vst(v(1), r(1), 64)
        b.halt()
        b.words(0x100, range(4))
        report = lint_program(b.build())
        assert [f.pc for f in report.by_rule("df-dead-store")] == [1]

    def test_vec_never_written_is_live_at_exit(self):
        """A single VEC write is architecturally observable at exit —
        no dead store, symmetric with the integer rule."""
        b = ProgramBuilder("t")
        b.movi(r(1), 0x100)
        b.vld(v(1), r(1), 0)
        b.halt()
        b.words(0x100, range(4))
        assert lint_program(b.build()).ok


class TestSuppression:
    def test_marker_parsing(self):
        assert suppressed_rules("lint: ignore[df-dead-store]") == (
            "df-dead-store",)
        assert suppressed_rules(
            "setup  lint: ignore[df-dead-store, cfg-unreachable]") == (
            "df-dead-store", "cfg-unreachable")
        assert suppressed_rules("") == ()
        assert suppressed_rules(None) == ()

    def test_lint_ignore_suppresses_finding(self):
        b = ProgramBuilder()
        b.movi(r(1), 1)
        b.lint_ignore("df-dead-store")
        b.movi(r(1), 2)
        b.halt()
        report = lint_program(b.build())
        assert report.ok
        suppressed = report.suppressed
        assert len(suppressed) == 1 and suppressed[0].rule == "df-dead-store"
        assert suppressed[0].pc == 0

    def test_suppression_is_rule_specific(self):
        b = ProgramBuilder()
        b.movi(r(1), 1)
        b.lint_ignore("cfg-unreachable")  # wrong rule: finding stays active
        b.movi(r(1), 2)
        b.halt()
        report = lint_program(b.build())
        assert not report.ok
        # The finding survives, and the mismatched marker itself draws
        # the unused-suppression meta-finding.
        assert sorted(f.rule for f in report.active) == [
            "df-dead-store", "lint-unused-ignore"]
        report = lint_program(b.build(), warn_unused_ignore=False)
        assert [f.rule for f in report.active] == ["df-dead-store"]

    def test_lint_ignore_requires_instruction_and_rules(self):
        b = ProgramBuilder()
        with pytest.raises(ValueError):
            b.lint_ignore("df-dead-store")  # nothing emitted yet
        b.movi(r(1), 1)
        with pytest.raises(ValueError):
            b.lint_ignore()


class TestBuilderValidation:
    def test_undefined_label_raises(self):
        b = ProgramBuilder()
        b.jmp("nowhere")
        with pytest.raises(ProgramValidationError, match="nowhere"):
            b.build()

    def test_out_of_range_numeric_target_raises(self):
        b = ProgramBuilder()
        b.jmp(99)
        with pytest.raises(ProgramValidationError, match="99"):
            b.build()

    def test_auto_halt_rules_out_fallthrough(self):
        b = ProgramBuilder()
        b.movi(r(1), 3)
        program = b.build()
        assert program.instructions[-1].is_halt
        assert lint_program(program).ok


class TestKernels:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_kernel_is_lint_clean(self, name):
        report = lint_benchmark(name)
        assert report.ok, report.render()

    def test_known_suppressions_are_exercised(self):
        """The three in-tree lint_ignore markers must each still suppress
        a live finding (a stale marker means the code changed under it)."""
        suppressed = {name: [(f.rule, f.pc) for f in
                             lint_benchmark(name).suppressed]
                      for name in ("500.perlbench_r", "502.gcc_r",
                                   "548.exchange2_r")}
        for name, found in suppressed.items():
            assert found, f"{name}: lint_ignore marker no longer suppresses"
            assert all(rule == "df-dead-store" for rule, _pc in found)


class TestCli:
    def test_lint_single_benchmark(self, capsys):
        assert main(["lint", "mcf"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out and "clean" in out

    def test_lint_all(self, capsys):
        from repro.workloads import workload_names

        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        # --all covers every addressable ref, variants included
        assert out.count("clean") == len(workload_names(variants=True))
        assert "505.mcf_r/ref2" in out

    def test_lint_without_benchmarks_is_usage_error(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_fails_on_seeded_violation(self, capsys, monkeypatch):
        """A kernel with an active finding must make the CLI exit 1."""
        import repro.workloads as workloads

        def bad_builder(iterations=1):
            b = ProgramBuilder("seeded")
            b.movi(r(1), 1)
            b.movi(r(1), 2)          # unsuppressed dead store
            b.halt()
            return b.build()

        monkeypatch.setattr(workloads, "resolve", lambda name: name)
        monkeypatch.setattr(workloads, "builder_for",
                            lambda name: bad_builder)
        assert main(["lint", "seeded"]) == 1
        out = capsys.readouterr().out
        assert "df-dead-store" in out

    def test_verbose_shows_suppressed(self, capsys):
        assert main(["lint", "perlbench", "-v"]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out

    def test_lint_format_json(self, capsys):
        assert main(["lint", "mcf", "perlbench", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 0
        by_name = {row["benchmark"]: row for row in payload["benchmarks"]}
        assert by_name["505.mcf_r"]["ok"] is True
        assert by_name["505.mcf_r"]["findings"] == []
        # perlbench carries a suppressed finding; JSON keeps it, marked
        perl = by_name["500.perlbench_r"]
        assert perl["ok"] is True
        assert any(f["suppressed"] for f in perl["findings"])
        assert all({"rule", "severity", "pc", "label", "message"}
                   <= set(f) for f in perl["findings"])

    def test_lint_json_reports_violations(self, capsys, monkeypatch):
        import repro.workloads as workloads

        def bad_builder(iterations=1):
            b = ProgramBuilder("seeded")
            b.movi(r(1), 1)
            b.movi(r(1), 2)
            b.halt()
            return b.build()

        monkeypatch.setattr(workloads, "resolve", lambda name: name)
        monkeypatch.setattr(workloads, "builder_for",
                            lambda name: bad_builder)
        assert main(["lint", "seeded", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 1
        rules = [f["rule"] for f in payload["benchmarks"][0]["findings"]]
        assert "df-dead-store" in rules

    def test_no_warn_unused_ignore_flag(self, capsys, monkeypatch):
        import repro.workloads as workloads

        def stale_builder(iterations=1):
            b = ProgramBuilder("stale")
            b.movi(r(1), 1)
            b.lint_ignore("cfg-unreachable")  # suppresses nothing
            b.halt()
            return b.build()

        monkeypatch.setattr(workloads, "resolve", lambda name: name)
        monkeypatch.setattr(workloads, "builder_for",
                            lambda name: stale_builder)
        assert main(["lint", "stale"]) == 1
        assert "lint-unused-ignore" in capsys.readouterr().out
        assert main(["lint", "stale", "--no-warn-unused-ignore"]) == 0

    def test_list_lints(self, capsys):
        assert main(["list", "lints"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out
        assert "lint-unused-ignore" in out and "(meta)" in out


class TestAnalyzeStaticCli:
    def test_static_table_json(self, capsys):
        assert main(["analyze", "static", "mcf", "-n", "400",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_violations"] == 0
        row = payload["benchmarks"][0]
        assert row["benchmark"] == "505.mcf_r"
        assert row["bound_ok"] is True
        assert row["dynamic_realized"] <= row["static_bound"]
        assert {"regions", "alias_pairs", "forwardable_loads"} <= set(row)

    def test_static_table_text(self, capsys):
        assert main(["analyze", "static", "exchange2", "-n", "400"]) == 0
        out = capsys.readouterr().out
        assert "548.exchange2_r" in out and "bound" in out
        assert "VIOLATION" not in out

    def test_unknown_benchmark_is_usage_error(self, capsys):
        assert main(["analyze", "static", "nonesuch"]) == 2

    def test_dynamic_mode_takes_one_benchmark(self, capsys):
        assert main(["analyze", "mcf", "omnetpp"]) == 2
