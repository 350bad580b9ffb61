"""Diagnostics engine and source-location threading."""

import pytest

from repro.analysis import Diagnostic, DiagnosticEngine, Severity, error_code_counts
from repro.ir import SourceLoc, VerifyError, parse_module, verify_operation


class TestSourceLoc:
    def test_str_with_filename(self):
        assert str(SourceLoc(3, 7, "demo.mlir")) == "demo.mlir:3:7"

    def test_str_without_filename(self):
        assert str(SourceLoc(3, 7)) == "<input>:3:7"


PROGRAM = """builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
"""


class TestLocationThreading:
    def test_parser_records_locations(self):
        module = parse_module(PROGRAM, "demo.mlir")
        locs = {op.name: op.loc for op in module.walk()}
        assert locs["accfg.setup"] == SourceLoc(3, 5, "demo.mlir")
        assert locs["accfg.launch"] == SourceLoc(4, 5, "demo.mlir")
        assert locs["accfg.await"] == SourceLoc(5, 5, "demo.mlir")
        assert locs["builtin.module"] == SourceLoc(1, 1, "demo.mlir")

    def test_filename_defaults_to_none(self):
        module = parse_module(PROGRAM)
        setup = next(op for op in module.walk() if op.name == "accfg.setup")
        assert setup.loc == SourceLoc(3, 5)

    def test_programmatic_ops_have_no_location(self):
        from repro.dialects import arith
        from repro.ir import i64

        assert arith.ConstantOp.create(1, i64).loc is None

    def test_clone_preserves_location(self):
        module = parse_module(PROGRAM, "demo.mlir")
        setup = next(op for op in module.walk() if op.name == "accfg.setup")
        assert setup.clone({o: o for o in setup.operands}).loc == setup.loc

    def test_verifier_error_names_the_line(self):
        bad = """builtin.module {
  func.func @main(%a : i64, %b : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %a : i64, "n" = %b : i64) : !accfg.state<"toyvec">
    func.return
  }
}
"""
        module = parse_module(bad, "bad.mlir")
        with pytest.raises(VerifyError, match=r"bad\.mlir:3:5: duplicate setup field"):
            verify_operation(module)


class TestDiagnostic:
    def test_format_has_code_location_excerpt_and_note(self):
        module = parse_module(PROGRAM, "demo.mlir")
        launch = next(op for op in module.walk() if op.name == "accfg.launch")
        diag = Diagnostic("ACCFG001", Severity.WARNING, "launch never awaited", launch)
        diag.with_note("insert accfg.await")
        text = diag.format()
        assert "warning[ACCFG001]: launch never awaited" in text
        assert "--> demo.mlir:4:5" in text
        assert "accfg.launch" in text
        assert "= note: insert accfg.await" in text

    def test_format_without_op(self):
        diag = Diagnostic("ACCFG999", Severity.ERROR, "module-level problem")
        text = diag.format()
        assert text.startswith("error[ACCFG999]: module-level problem")
        assert "-->" not in text

    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.NOTE


class TestDiagnosticEngine:
    def test_collects_and_counts(self):
        engine = DiagnosticEngine()
        engine.error("ACCFG002", "boom")
        engine.warning("ACCFG001", "meh")
        assert engine.has_errors
        assert engine.count(Severity.ERROR) == 1
        assert engine.count(Severity.WARNING) == 1

    def test_deduplicates_repeats(self):
        module = parse_module(PROGRAM)
        launch = next(op for op in module.walk() if op.name == "accfg.launch")
        engine = DiagnosticEngine()
        engine.warning("ACCFG001", "same", launch)
        engine.warning("ACCFG001", "same", launch)
        assert len(engine.diagnostics) == 1

    def test_error_code_counts(self):
        engine = DiagnosticEngine()
        engine.error("ACCFG002", "a")
        engine.error("ACCFG002", "b")
        engine.warning("ACCFG001", "c")
        assert error_code_counts(engine.diagnostics) == {"ACCFG002": 2}
