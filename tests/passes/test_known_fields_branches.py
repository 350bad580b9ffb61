"""Tests for the known-fields dataflow through branches (Section 5.4.1:
"our inference has to take the intersection of the two sides")."""

from repro.analysis.dataflow import KnownFields, KnownFieldsAnalysis, intersect
from repro.dialects import accfg, scf
from repro.ir import SSAValue, i64, parse_module
from repro.passes import TraceStatesPass, pipeline_by_name


def known_after_if(text):
    module = parse_module(text)
    TraceStatesPass().apply(module)
    if_op = next(op for op in module.walk() if isinstance(op, scf.IfOp))
    state_result = next(
        r for r in if_op.results if isinstance(r.type, accfg.StateType)
    )
    return KnownFieldsAnalysis("toyvec").known(state_result)


class TestBranchIntersection:
    def test_field_written_in_one_branch_is_dropped(self):
        known = known_after_if(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %y : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                scf.yield
              }
              func.return
            }
            """
        )
        # "n" survives (untouched on both paths); "op" is branch-dependent.
        assert "n" in known.fields
        assert "op" not in known.fields

    def test_same_value_on_both_paths_survives(self):
        known = known_after_if(
            """
            func.func @f(%c : i1, %x : i64) -> () {
              %s0 = accfg.setup on "toyvec" () : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %x : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                %s2 = accfg.setup on "toyvec" ("op" = %x : i64) : !accfg.state<"toyvec">
                scf.yield
              }
              func.return
            }
            """
        )
        assert known.fields.get("op") is not None

    def test_different_values_per_path_dropped(self):
        known = known_after_if(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" () : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %x : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                %s2 = accfg.setup on "toyvec" ("op" = %y : i64) : !accfg.state<"toyvec">
                scf.yield
              }
              func.return
            }
            """
        )
        assert "op" not in known.fields

    def test_overwrite_on_one_path_kills_incoming_knowledge(self):
        known = known_after_if(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("n" = %y : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                scf.yield
              }
              func.return
            }
            """
        )
        assert "n" not in known.fields

    def test_post_if_dedup_uses_intersection(self):
        """End to end: only the intersection-stable field is removable from
        the post-if setup."""
        from repro.passes import DedupPass

        module = parse_module(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %x : i64) : !accfg.state<"toyvec">
              %t0 = accfg.launch %s0 : !accfg.token<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %y : i64) : !accfg.state<"toyvec">
                %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
                scf.yield
              } else {
                scf.yield
              }
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %x : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        TraceStatesPass().apply(module)
        DedupPass().apply(module)
        # "n" is stable across both paths and dedup-able; "op" was
        # overwritten on one path and must still be written somewhere after
        # the branch (inside the branches after hoisting, or at the join).
        remaining = set()
        for setup in module.walk():
            if isinstance(setup, accfg.SetupOp):
                remaining.update(setup.field_names)
        # "op" must still be written somewhere after the branch (inside the
        # branches after hoisting, or in the final setup).
        assert "op" in remaining


class TestTopMeet:
    """The meet of two optimistic tops ("whatever you need, except these
    overrides"), as met when a loop-carried state joins an ``scf.if``."""

    x = SSAValue(i64, "x")
    y = SSAValue(i64, "y")

    def test_agreeing_overrides_survive(self):
        met = intersect(
            KnownFields(True, {"n": self.x}), KnownFields(True, {"n": self.x})
        )
        assert met.is_top and met.fields == {"n": self.x}

    def test_conflicting_overrides_become_unknown(self):
        met = intersect(
            KnownFields(True, {"n": self.x}), KnownFields(True, {"n": self.y})
        )
        assert met.is_top and met.fields == {"n": None}

    def test_one_sided_override_is_kept_from_either_side(self):
        only_a = intersect(KnownFields(True, {"n": self.x}), KnownFields.top())
        only_b = intersect(KnownFields.top(), KnownFields(True, {"n": self.x}))
        assert only_a.fields == only_b.fields == {"n": self.x}

    def test_unknown_field_meets_concrete_value_as_unknown(self):
        met = intersect(
            KnownFields(False, {"n": self.x}), KnownFields(True, {"n": None})
        )
        assert not met.is_top and met.fields == {}


class TestLoopCarriedBranchRewrite:
    """Shrunk fuzz reproducer (toyvec): the loop body re-sets ``ptr_out``
    before its launch, and a later ``scf.if`` in the same body points it at
    another buffer.  The re-setup is needed from the second iteration on."""

    TEXT = """
    func.func @main(%c : i1) -> () {
      %p0 = arith.constant 4288 : i64
      %s0 = accfg.setup on "toyvec" ("ptr_out" = %p0 : i64) : !accfg.state<"toyvec">
      %lb = arith.constant 0 : index
      %one = arith.constant 1 : index
      %ub = arith.constant 3 : index
      scf.for %i = %lb to %ub step %one {
        %p1 = arith.constant 4288 : i64
        %s1 = accfg.setup on "toyvec" ("ptr_out" = %p1 : i64) : !accfg.state<"toyvec">
        %t = accfg.launch %s1 : !accfg.token<"toyvec">
        accfg.await %t
        scf.if %c {
          %p2 = arith.constant 4352 : i64
          %s2 = accfg.setup on "toyvec" ("ptr_out" = %p2 : i64) : !accfg.state<"toyvec">
          scf.yield
        }
        scf.yield
      }
      func.return
    }
    """

    def test_dedup_keeps_the_in_loop_resetup(self):
        module = parse_module(self.TEXT)
        pipeline_by_name("dedup").run(module)
        launch = next(
            op for op in module.walk() if isinstance(op, accfg.LaunchOp)
        )
        feeding = launch.state.owner
        assert isinstance(feeding, accfg.SetupOp)
        assert "ptr_out" in feeding.field_names

    def test_loop_entry_state_does_not_know_ptr_out(self):
        module = parse_module(self.TEXT)
        TraceStatesPass().apply(module)
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        carried = loop.body.args[1]
        assert "ptr_out" not in KnownFieldsAnalysis("toyvec").known(carried).fields

