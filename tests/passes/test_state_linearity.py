"""Tests for the one-live-state constraint checker (paper, Section 5.1)."""

from repro.analysis.linearity import linearity_diagnostics
from repro.ir import parse_module
from repro.passes import TraceStatesPass


class TestLinearChains:
    def test_traced_straight_line_is_linear(self):
        module = parse_module(
            """
            func.func @main(%x : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %s2 = accfg.setup on "toyvec" ("op" = %x : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        TraceStatesPass().apply(module)
        assert linearity_diagnostics(module) == []

    def test_traced_loop_is_linear(self):
        module = parse_module(
            """
            func.func @main(%x : i64) -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c4 = arith.constant 4 : index
              scf.for %i = %c0 to %c4 step %c1 {
                %s = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
                %t = accfg.launch %s : !accfg.token<"toyvec">
                accfg.await %t
                scf.yield
              }
              func.return
            }
            """
        )
        TraceStatesPass().apply(module)
        assert linearity_diagnostics(module) == []

    def test_pipelined_loop_is_linear(self):
        from repro.passes import pipeline_by_name

        module = parse_module(
            """
            func.func @main(%x : index) -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c4 = arith.constant 4 : index
              scf.for %i = %c0 to %c4 step %c1 {
                %v = arith.addi %x, %i : index
                %s = accfg.setup on "toyvec" ("n" = %v : index) : !accfg.state<"toyvec">
                %t = accfg.launch %s : !accfg.token<"toyvec">
                accfg.await %t
                scf.yield
              }
              func.return
            }
            """
        )
        pipeline_by_name("full").run(module)
        assert linearity_diagnostics(module) == []


class TestViolations:
    def test_forked_chain_flagged(self):
        module = parse_module(
            """
            func.func @main(%x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %s1 = accfg.setup on "toyvec" from %s0 ("op" = %x : i64) : !accfg.state<"toyvec">
              %s2 = accfg.setup on "toyvec" from %s0 ("op" = %y : i64) : !accfg.state<"toyvec">
              func.return
            }
            """
        )
        diagnostics = linearity_diagnostics(module)
        assert len(diagnostics) == 1
        assert "forked" in diagnostics[0].message

    def test_launch_on_superseded_state_flagged(self):
        module = parse_module(
            """
            func.func @main(%x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %s1 = accfg.setup on "toyvec" from %s0 ("n" = %y : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s0 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        diagnostics = linearity_diagnostics(module)
        assert any("superseded state" in d.message for d in diagnostics)

    def test_untraced_disconnected_setups_allowed(self):
        """Frontend output before tracing: disconnected chains carry no
        in_state, so nothing is superseded yet."""
        module = parse_module(
            """
            func.func @main(%x : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              func.return
            }
            """
        )
        assert linearity_diagnostics(module) == []
