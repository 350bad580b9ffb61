"""Positive and negative coverage for every lint code ACCFG001..ACCFG009.

(ACCFG010, the configuration-roofline lint, has its own module:
``test_roofline_lint.py``.)
"""

import pytest

from repro.analysis import Severity, run_lints
from repro.ir import parse_module


def lint_codes(text, **kwargs):
    diags = run_lints(parse_module(text), **kwargs)
    return {d.code for d in diags}, diags


CLEAN = """builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
"""


class TestCleanProgram:
    def test_no_diagnostics_at_all(self):
        codes, _ = lint_codes(CLEAN)
        assert codes == set()


class TestLaunchNeverAwaited:
    def test_positive(self):
        codes, diags = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    func.return
  }
}
""")
        assert "ACCFG001" in codes
        diag = next(d for d in diags if d.code == "ACCFG001")
        assert diag.severity is Severity.WARNING
        assert any("accfg.await" in note for note in diag.notes)

    def test_negative_await_in_other_branch_via_yield(self):
        # Token flows out of an scf.if; the await outside consumes it.
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64, %c : i1) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
""")
        assert "ACCFG001" not in codes


class TestDoubleAwait:
    def test_positive_straight_line(self):
        codes, diags = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    accfg.await %t
    func.return
  }
}
""")
        assert "ACCFG002" in codes
        assert next(d for d in diags if d.code == "ACCFG002").severity is Severity.ERROR

    def test_positive_loop_reawaits_outer_token(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    %c4 = arith.constant 4 : index
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    scf.for %i = %c0 to %c4 step %c1 {
      accfg.await %t
      scf.yield
    }
    func.return
  }
}
""")
        assert "ACCFG002" in codes

    def test_negative_awaits_in_disjoint_branches(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64, %c : i1) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    scf.if %c {
      accfg.await %t
      scf.yield
    } else {
      accfg.await %t
      scf.yield
    }
    func.return
  }
}
""")
        assert "ACCFG002" not in codes

    def test_negative_fresh_token_every_iteration(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    %c4 = arith.constant 4 : index
    scf.for %i = %c0 to %c4 step %c1 {
      %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
      %t = accfg.launch %s : !accfg.token<"toyvec">
      accfg.await %t
      scf.yield
    }
    func.return
  }
}
""")
        assert "ACCFG002" not in codes


class TestUseAfterReset:
    def test_positive(self):
        codes, diags = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    accfg.reset %s
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
""")
        assert "ACCFG003" in codes
        assert next(d for d in diags if d.code == "ACCFG003").severity is Severity.ERROR

    def test_negative_reset_last(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    accfg.reset %s
    func.return
  }
}
""")
        assert "ACCFG003" not in codes


FORKED = """builtin.module {
  func.func @main(%n : i64, %m : i64) -> () {
    %s0 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %s1 = accfg.setup on "toyvec" from %s0 ("n" = %m : i64) : !accfg.state<"toyvec">
    %s2 = accfg.setup on "toyvec" from %s0 ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s2 : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
"""

SUPERSEDED = """builtin.module {
  func.func @main(%n : i64, %m : i64) -> () {
    %s0 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %s1 = accfg.setup on "toyvec" from %s0 ("n" = %m : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s0 : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
"""


class TestLinearity:
    def test_forked_chain_positive(self):
        codes, diags = lint_codes(FORKED)
        assert "ACCFG004" in codes
        diag = next(d for d in diags if d.code == "ACCFG004")
        assert diag.severity is Severity.ERROR
        assert "forked" in diag.message

    def test_superseded_launch_positive(self):
        codes, diags = lint_codes(SUPERSEDED)
        assert "ACCFG005" in codes
        assert "superseded state" in next(
            d for d in diags if d.code == "ACCFG005"
        ).message

    def test_linear_chain_negative(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64, %m : i64) -> () {
    %s0 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %s1 = accfg.setup on "toyvec" from %s0 ("n" = %m : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s1 : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
""")
        assert "ACCFG004" not in codes and "ACCFG005" not in codes

    def test_consumers_in_disjoint_branches_are_not_a_fork(self):
        # dedup's hoist-into-branches clones a setup into both arms of an
        # scf.if; only one arm runs, so the shared input state is not forked.
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64, %m : i64, %c : i1) -> () {
    %s0 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %s = scf.if %c -> (!accfg.state<"toyvec">) {
      %a = accfg.setup on "toyvec" from %s0 ("n" = %m : i64) : !accfg.state<"toyvec">
      scf.yield %a : !accfg.state<"toyvec">
    } else {
      %b = accfg.setup on "toyvec" from %s0 ("op" = %m : i64) : !accfg.state<"toyvec">
      scf.yield %b : !accfg.state<"toyvec">
    }
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
""")
        assert "ACCFG004" not in codes and "ACCFG005" not in codes

    def test_rules_do_not_double_report(self):
        # ACCFG004 and ACCFG005 share one walk; running both rules must not
        # duplicate findings.
        _, diags = lint_codes(FORKED)
        assert len([d for d in diags if d.code == "ACCFG004"]) == 1


class TestDeadSetupField:
    def test_positive_overwritten_before_launch(self):
        codes, diags = lint_codes("""builtin.module {
  func.func @main(%n : i64, %m : i64) -> () {
    %s0 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %s1 = accfg.setup on "toyvec" from %s0 ("n" = %m : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s1 : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
""")
        assert "ACCFG006" in codes
        assert "'n'" in next(d for d in diags if d.code == "ACCFG006").message

    def test_positive_state_never_launched(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    func.return
  }
}
""")
        assert "ACCFG006" in codes

    def test_negative_field_observed(self):
        codes, _ = lint_codes(CLEAN)
        assert "ACCFG006" not in codes

    def test_negative_observed_through_loop_carried_state(self):
        # The field is written before the loop and consumed by launches
        # inside it — observed through the iter_args cycle, not dead.
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    %c4 = arith.constant 4 : index
    %s0 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %sf = scf.for %i = %c0 to %c4 step %c1 iter_args(%st = %s0) -> (!accfg.state<"toyvec">) {
      %t = accfg.launch %st : !accfg.token<"toyvec">
      accfg.await %t
      scf.yield %st : !accfg.state<"toyvec">
    }
    func.return
  }
}
""")
        assert "ACCFG006" not in codes


class TestRedundantSetupField:
    def test_positive_same_value_rewritten(self):
        codes, diags = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s0 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t0 = accfg.launch %s0 : !accfg.token<"toyvec">
    accfg.await %t0
    %s1 = accfg.setup on "toyvec" from %s0 ("n" = %n : i64) : !accfg.state<"toyvec">
    %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
    accfg.await %t1
    func.return
  }
}
""")
        assert "ACCFG007" in codes
        diag = next(d for d in diags if d.code == "ACCFG007")
        assert any("dedup" in note for note in diag.notes)

    def test_negative_different_value(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64, %m : i64) -> () {
    %s0 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t0 = accfg.launch %s0 : !accfg.token<"toyvec">
    accfg.await %t0
    %s1 = accfg.setup on "toyvec" from %s0 ("n" = %m : i64) : !accfg.state<"toyvec">
    %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
    accfg.await %t1
    func.return
  }
}
""")
        assert "ACCFG007" not in codes


BLACKBOX = """builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    "test.blackbox"(%n) {ANNOTATIONS} : (i64) -> ()
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    func.return
  }
}
"""


class TestPessimisticClobber:
    def test_positive_unknown_op_between_config_ops(self):
        codes, diags = lint_codes(BLACKBOX.replace("{ANNOTATIONS}", "{}"))
        assert "ACCFG008" in codes
        diag = next(d for d in diags if d.code == "ACCFG008")
        assert "test.blackbox" in diag.message
        assert any("accfg.effects" in note for note in diag.notes)

    def test_negative_effects_annotated(self):
        codes, _ = lint_codes(
            BLACKBOX.replace("{ANNOTATIONS}", '{accfg.effects = "none"}')
        )
        assert "ACCFG008" not in codes

    def test_negative_outside_config_sequence(self):
        # The unknown op runs after every accfg op: nothing to clobber.
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    "test.blackbox"(%n) : (i64) -> ()
    func.return
  }
}
""")
        assert "ACCFG008" not in codes


class TestUnknownAccelerator:
    def test_positive_typo_name(self):
        codes, diags = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "gemini" ("A" = %n : i64) : !accfg.state<"gemini">
    func.return
  }
}
""")
        assert "ACCFG009" in codes
        diag = next(d for d in diags if d.code == "ACCFG009")
        assert "gemini" in diag.message
        assert any("toyvec" in note for note in diag.notes)

    def test_reported_once_per_name(self):
        _, diags = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s0 = accfg.setup on "gemini" ("A" = %n : i64) : !accfg.state<"gemini">
    %s1 = accfg.setup on "gemini" from %s0 ("A" = %n : i64) : !accfg.state<"gemini">
    func.return
  }
}
""")
        assert len([d for d in diags if d.code == "ACCFG009"]) == 1

    def test_negative_registered_name(self):
        codes, _ = lint_codes(CLEAN)
        assert "ACCFG009" not in codes


class TestRunLintsFiltering:
    def test_codes_filter(self):
        module_text = FORKED
        codes, _ = lint_codes(module_text, codes={"ACCFG006"})
        assert "ACCFG004" not in codes

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="ACCFG999"):
            run_lints(parse_module(CLEAN), codes={"ACCFG999"})


class TestRetentionHazard:
    def test_positive_second_launch_relies_on_retention(self):
        codes, diags = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t1 = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t1
    %t2 = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t2
    func.return
  }
}
""")
        assert "ACCFG011" in codes
        diag = next(d for d in diags if d.code == "ACCFG011")
        assert diag.severity is Severity.WARNING
        assert "'n'" in diag.message
        assert any("recovery" in note for note in diag.notes)

    def test_positive_hoisted_setup_feeding_loop(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    %c4 = arith.constant 4 : index
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    scf.for %i = %c0 to %c4 step %c1 {
      %t = accfg.launch %s : !accfg.token<"toyvec">
      accfg.await %t
      scf.yield
    }
    func.return
  }
}
""")
        assert "ACCFG011" in codes

    def test_negative_single_launch(self):
        codes, _ = lint_codes(CLEAN)
        assert "ACCFG011" not in codes

    def test_negative_field_rewritten_before_each_launch(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64, %m : i64) -> () {
    %s1 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
    accfg.await %t1
    %s2 = accfg.setup on "toyvec" from %s1 ("n" = %m : i64) : !accfg.state<"toyvec">
    %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
    accfg.await %t2
    func.return
  }
}
""")
        assert "ACCFG011" not in codes

    def test_negative_per_iteration_setup(self):
        codes, _ = lint_codes("""builtin.module {
  func.func @main(%n : i64) -> () {
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    %c4 = arith.constant 4 : index
    scf.for %i = %c0 to %c4 step %c1 {
      %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
      %t = accfg.launch %s : !accfg.token<"toyvec">
      accfg.await %t
      scf.yield
    }
    func.return
  }
}
""")
        assert "ACCFG011" not in codes
