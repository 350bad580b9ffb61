"""The fused ``canonicalize + cse + dce`` cleanup driver.

The default pipelines used to ping-pong whole-module passes
(``canonicalize`` then ``cse`` then ``dce``, each walking and re-walking
the module, each followed by a verifier run).  This pass reaches the joint
fixpoint in one pass slot:

* the canonicalization patterns (which subsume DCE: ``DeadPureOpPattern``
  erases exactly what ``DCEPass`` erases) are driven to fixpoint by the
  worklist driver;
* CSE then runs once, threading a :class:`PatternRewriter` so the users of
  every replaced value are recorded;
* those touched ops *reseed* the worklist driver — no full re-walk — and
  the two steps alternate until CSE finds nothing, which (with the pattern
  fixpoint reached inside each driver run) is the joint fixpoint.
"""

from __future__ import annotations

from ..ir.operation import Operation
from ..ir.rewriter import GreedyPatternDriver, PatternRewriter, enclosing_scope
from .canonicalize import DEFAULT_PATTERNS
from .cse import cse_root
from .pass_manager import ModulePass, register_pass, report_scopes

#: alternations of pattern-fixpoint + CSE before giving up; CSE can only
#: enable more dedup/folding a bounded number of times, so this is a
#: safety net, not an expected stop
MAX_CLEANUP_ROUNDS = 50

_PATTERN_DRIVER = GreedyPatternDriver(DEFAULT_PATTERNS)


@register_pass
class CleanupPass(ModulePass):
    """Fused canonicalize+cse+dce to a joint fixpoint (one pass slot)."""

    name = "cleanup"

    def apply(self, module: Operation, analyses=None):
        scopes: dict[Operation, None] = {}
        root_level = False
        changed_any = False

        def record(result) -> None:
            nonlocal root_level, changed_any
            if not result.changed:
                return
            changed_any = True
            if result.scopes is None:
                root_level = True
            else:
                scopes.update(result.scopes)

        rewriter = PatternRewriter()
        record(_PATTERN_DRIVER.run(module, rewriter=rewriter))
        for _ in range(MAX_CLEANUP_ROUNDS):
            cse_rewriter = PatternRewriter()

            def on_erase(op: Operation) -> None:
                nonlocal root_level
                scope = enclosing_scope(module, op)
                if scope is None:
                    root_level = True
                else:
                    scopes[scope] = None

            if not cse_root(module, rewriter=cse_rewriter, on_erase=on_erase):
                break
            changed_any = True
            # Only the neighbourhood CSE touched can enable new pattern
            # matches; reseed the worklist driver with it.
            seeds = [
                op
                for op in cse_rewriter.touched
                if op.parent is not None
            ]
            record(_PATTERN_DRIVER.run(module, seeds=seeds, rewriter=rewriter))
        return report_scopes(changed_any, scopes, root_level)
