"""Tests for the cross-pass analysis cache (repro.analysis.manager)."""

from repro.analysis.manager import AnalysisManager
from repro.ir import parse_module
from repro.passes import ModulePass, PassManager

TWO_FUNCTIONS = """
func.func @first(%x : i64) -> () {
  %n = arith.constant 4 : i64
  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
  func.return
}
func.func @second(%x : i64) -> () {
  %n = arith.constant 8 : i64
  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
  func.return
}
"""


def functions(module):
    return [op for op in module.body_block.ops if op.name == "func.func"]


def setup_module():
    module = parse_module(TWO_FUNCTIONS)
    return module, functions(module)


class TestCaching:
    def test_same_scope_shares_one_instance(self):
        module, (first, _) = setup_module()
        manager = AnalysisManager()
        a = manager.awaited_tokens(first)
        b = manager.awaited_tokens(first)
        assert a is b
        assert (manager.hits, manager.misses) == (1, 1)

    def test_distinct_scopes_get_distinct_instances(self):
        module, (first, second) = setup_module()
        manager = AnalysisManager()
        assert manager.awaited_tokens(first) is not manager.awaited_tokens(second)
        assert manager.misses == 2

    def test_kind_is_part_of_the_key(self):
        module, (first, _) = setup_module()
        manager = AnalysisManager()
        manager.awaited_tokens(first)
        manager.observed_fields(first)
        manager.known_fields(first, "toyvec")
        manager.known_fields(first, "gemmini")
        assert len(manager) == 4
        assert manager.misses == 4


class TestInvalidation:
    def test_invalidate_all(self):
        module, (first, second) = setup_module()
        manager = AnalysisManager()
        manager.awaited_tokens(first)
        manager.awaited_tokens(second)
        manager.invalidate()
        assert len(manager) == 0
        manager.awaited_tokens(first)
        assert manager.misses == 3  # rebuilt, not served stale

    def test_scoped_invalidation_keeps_unrelated_functions(self):
        module, (first, second) = setup_module()
        manager = AnalysisManager()
        kept = manager.awaited_tokens(second)
        manager.awaited_tokens(first)
        manager.invalidate([first])
        # first's entry is gone; second's survives untouched.
        assert manager.awaited_tokens(second) is kept
        manager.awaited_tokens(first)
        assert manager.misses == 3

    def test_mutating_a_function_kills_module_scoped_entries(self):
        module, (first, _) = setup_module()
        manager = AnalysisManager()
        whole = manager.observed_fields(module)
        manager.invalidate([first])
        assert manager.observed_fields(module) is not whole

    def test_mutating_the_module_kills_function_scoped_entries(self):
        module, (first, _) = setup_module()
        manager = AnalysisManager()
        entry = manager.awaited_tokens(first)
        manager.invalidate([module])
        assert manager.awaited_tokens(first) is not entry

    def test_empty_mutation_set_is_a_no_op(self):
        module, (first, _) = setup_module()
        manager = AnalysisManager()
        entry = manager.awaited_tokens(first)
        manager.invalidate([])
        assert manager.awaited_tokens(first) is entry

    def test_detached_mutation_invalidates_everything(self):
        # A mutated op that has been detached from the IR can no longer be
        # attributed to any cached scope by ancestry, so the manager must
        # fall back to full invalidation rather than keep stale entries.
        module, (first, second) = setup_module()
        manager = AnalysisManager()
        kept = manager.awaited_tokens(second)
        detached = first.body.ops[0].detach()
        manager.invalidate([detached])
        assert len(manager) == 0
        assert manager.awaited_tokens(second) is not kept

    def test_detached_scope_root_still_matches_itself(self):
        # Detaching a cached scope op itself stays scope-granular: the op is
        # a known scope, so only its own entries (and enclosing ones) die.
        module, (first, second) = setup_module()
        manager = AnalysisManager()
        kept = manager.awaited_tokens(second)
        manager.awaited_tokens(first)
        first.detach()
        manager.invalidate([first])
        assert manager.awaited_tokens(second) is kept


class TestForget:
    def test_drops_entries_nested_in_the_root(self):
        module, (first, second) = setup_module()
        manager = AnalysisManager()
        manager.awaited_tokens(first)
        manager.awaited_tokens(second)
        manager.observed_fields(module)
        manager.forget(module)
        assert len(manager) == 0

    def test_unkeyed_root_leaves_other_modules_alone(self):
        # Unlike invalidate(), forgetting a parentless root that no entry
        # is keyed on never falls back to clearing everything.
        module, (first, _) = setup_module()
        other, _ = setup_module()
        manager = AnalysisManager()
        kept = manager.awaited_tokens(first)
        manager.forget(other)
        assert manager.awaited_tokens(first) is kept


class _RecordingPass(ModulePass):
    """A modern pass that reports a caller-chosen change set."""

    name = "recording"

    def __init__(self, change_report):
        self.change_report = change_report
        self.saw_analyses = None

    def apply(self, module, analyses=None):
        self.saw_analyses = analyses
        return self.change_report


class TestPassManagerIntegration:
    def test_clean_pass_preserves_the_cache(self):
        module, (first, _) = setup_module()
        pm = PassManager([_RecordingPass(False)])
        entry = pm.analyses.awaited_tokens(first)
        pm.run(module)
        assert pm.analyses.awaited_tokens(first) is entry

    def test_rewriting_pass_invalidates_its_function_only(self):
        module, (first, second) = setup_module()
        rewriter = _RecordingPass([first])
        pm = PassManager([rewriter])
        stale = pm.analyses.awaited_tokens(first)
        kept = pm.analyses.awaited_tokens(second)
        pm.run(module)
        assert rewriter.saw_analyses is pm.analyses
        assert pm.analyses.awaited_tokens(first) is not stale
        assert pm.analyses.awaited_tokens(second) is kept

    def test_pass_returning_none_invalidates_everything(self):
        module, (first, _) = setup_module()

        class ReportsNothing(ModulePass):
            name = "reports-nothing"

            def apply(self, module, analyses=None):
                return None

        pm = PassManager([ReportsNothing()])
        entry = pm.analyses.awaited_tokens(first)
        pm.run(module)
        assert pm.analyses.awaited_tokens(first) is not entry
