"""Optimization pipelines must not *introduce* configuration hazards.

A hypothesis property drives random accfg programs through the ``full``
pipeline and asserts no error-severity diagnostics appear, plus direct
tests for the ``PassManager(lint=True)`` gate and the ``accfg-lint`` pass.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import Severity, run_lints
from repro.dialects import accfg
from repro.ir import parse_module
from repro.passes import (
    LintPass,
    ModulePass,
    PassManager,
    pipeline_by_name,
)
from repro.testing.generator import build, programs

RELAXED = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def error_diags(module):
    return [d for d in run_lints(module) if d.severity is Severity.ERROR]


@RELAXED
@given(programs())
def test_full_pipeline_never_introduces_errors(program):
    built = build(program)
    before = {d.code for d in error_diags(built.module)}
    assert not before, "generated programs must start hazard-free"
    pipeline_by_name("full").run(built.module)
    assert error_diags(built.module) == []


@RELAXED
@given(programs())
def test_overlap_pipeline_never_introduces_errors(program):
    built = build(program)
    pipeline_by_name("overlap").run(built.module)
    assert error_diags(built.module) == []


CLEAN = """builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
"""

DOUBLE_AWAIT = CLEAN.replace(
    "accfg.await %t\n", "accfg.await %t\n    accfg.await %t\n"
)


class DuplicateAwaitsPass(ModulePass):
    """A deliberately broken pass: clones every await (a real hazard)."""

    name = "test-duplicate-awaits"

    def apply(self, module, analyses=None):
        for op in list(module.walk()):
            if isinstance(op, accfg.AwaitOp):
                clone = op.clone({op.token: op.token})
                op.parent.insert_op_after(op, clone)


class TestPassManagerLintGate:
    def test_bad_pass_fails_the_pipeline(self):
        module = parse_module(CLEAN)
        manager = PassManager([DuplicateAwaitsPass()], lint=True)
        with pytest.raises(RuntimeError, match=r"introduced lint errors.*ACCFG002"):
            manager.run(module)

    def test_clean_pipeline_passes_the_gate(self):
        module = parse_module(CLEAN)
        PassManager(list(pipeline_by_name("full").passes), lint=True).run(module)

    def test_preexisting_errors_are_not_blamed_on_the_pipeline(self):
        # The gate only fires on diagnostics the pipeline *introduced*.
        module = parse_module(DOUBLE_AWAIT)
        PassManager([], lint=True).run(module)


class TestLintPass:
    def test_raises_on_error_diagnostics(self):
        pass_ = LintPass()
        with pytest.raises(RuntimeError, match="ACCFG002"):
            pass_.apply(parse_module(DOUBLE_AWAIT))
        assert any(d.code == "ACCFG002" for d in pass_.diagnostics)

    def test_records_warnings_without_raising(self):
        unawaited = CLEAN.replace("    accfg.await %t\n", "")
        pass_ = LintPass()
        pass_.apply(parse_module(unawaited))
        assert any(d.code == "ACCFG001" for d in pass_.diagnostics)

    def test_registered_in_pipeline_registry(self):
        manager = PassManager.from_pipeline("accfg-lint")
        assert isinstance(manager.passes[0], LintPass)
