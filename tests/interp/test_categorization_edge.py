"""Edge cases of instruction categorization and generic-syntax handling."""

from repro.dialects.accfg import config_feeding_ops
from repro.interp import run_module
from repro.ir import parse_module
from repro.isa import HostCostModel
from repro.sim import CoSimulator


class TestLaunchFieldCategorization:
    def test_launch_field_producers_are_calc(self):
        module = parse_module(
            """
            func.func @main(%x : i64) -> () {
              %addr = arith.addi %x, %x : i64
              %s = accfg.setup on "gemmini" () : !accfg.state<"gemmini">
              %t = accfg.launch %s ("op" = %x : i64, "ld_addr" = %addr : i64) : !accfg.token<"gemmini">
              func.return
            }
            """
        )
        feeding = {op.name for op in config_feeding_ops(module)}
        assert "arith.addi" in feeding

    def test_launch_config_charged_as_setup_category(self):
        module = parse_module(
            """
            func.func @main(%x : i64) -> () {
              %s = accfg.setup on "gemmini" () : !accfg.state<"gemmini">
              %t = accfg.launch %s ("op" = %x : i64, "ld_addr" = %x : i64) : !accfg.token<"gemmini">
              func.return
            }
            """
        )
        sim = CoSimulator(cost_model=HostCostModel(1.0), functional=False)
        run_module(module, sim, args=[0])
        stats = sim.trace.stats(sim.cost_model)
        # ld_addr (32b) -> one staged word + one custom RoCC.
        assert stats.setup_instrs == 2

    def test_chain_through_select_and_cmp(self):
        module = parse_module(
            """
            func.func @main(%x : i64, %y : i64) -> () {
              %c = arith.cmpi ult, %x, %y : i64
              %v = arith.select %c, %x, %y : i64
              %s = accfg.setup on "toyvec" ("n" = %v : i64) : !accfg.state<"toyvec">
              func.return
            }
            """
        )
        feeding = {op.name for op in config_feeding_ops(module)}
        assert "arith.select" in feeding
        assert "arith.cmpi" in feeding


class TestGenericSyntaxMultiResult:
    def test_multi_result_generic_op_roundtrip(self):
        text = """
        func.func @main() -> () {
          %a, %b = "mystery.pair"() : () -> (i64, i64)
          "mystery.sink"(%a, %b) : (i64, i64) -> ()
          func.return
        }
        """
        module = parse_module(text)
        printed = str(module)
        assert str(parse_module(printed)) == printed
        pair = next(op for op in module.walk() if "pair" in str(op.name) or getattr(op, "op_name", "") == "mystery.pair")
        assert len(pair.results) == 2

    def test_generic_op_with_regions_roundtrip(self):
        text = """
        func.func @main() -> () {
          "mystery.region_holder"() : () -> () {
            %c = arith.constant 1 : i64
          }
          func.return
        }
        """
        module = parse_module(text)
        printed = str(module)
        assert str(parse_module(printed)) == printed
