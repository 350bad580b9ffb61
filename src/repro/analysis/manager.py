"""Analysis caching across passes.

The dataflow analyses in :mod:`.dataflow` (known fields, awaited tokens,
observed fields) are demand-driven and internally memoized, but historically
every pass and every lint built its own instance — recompute-per-pass.  The
:class:`AnalysisManager` caches analysis instances keyed on the IR scope
they were computed over (a function, or a whole module), so consecutive
passes that leave a scope untouched share one computation.

Invalidation is driven by the :class:`~repro.passes.PassManager`: a pass
reports what it mutated (nothing / everything / a specific set of
functions), and only entries whose scope overlaps the mutated ops are
dropped.  Analyses cache facts about concrete ``Operation``/``SSAValue``
objects, so an entry is only ever valid for the exact op identity it was
keyed on — cloned or re-parsed modules always miss.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable

from ..ir.operation import Operation

if TYPE_CHECKING:  # pragma: no cover
    from .cost import CostAnalysis
from .dataflow import (
    AwaitedTokensAnalysis,
    KnownFieldsAnalysis,
    ObservedFieldsAnalysis,
)


def _is_related(a: Operation, b: Operation) -> bool:
    """True when one op is (or contains) the other."""
    current: Operation | None = a
    while current is not None:
        if current is b:
            return True
        current = current.parent_op
    current = b
    while current is not None:
        if current is a:
            return True
        current = current.parent_op
    return False


class AnalysisManager:
    """Per-scope cache of dataflow analysis instances.

    Cache bookkeeping is lock-guarded so one manager can serve concurrent
    server requests (:mod:`repro.serve`).  The lock is held across a cold
    ``factory()`` call on purpose: two threads asking for the same analysis
    must not both build it (analyses memoize per op identity, so a lost
    duplicate build is wasted work and a torn counter).  Passes mutating IR
    still need external coordination — the manager protects itself, not the
    modules it analyzed.
    """

    def __init__(self) -> None:
        #: id(scope op) -> (scope op, {kind: analysis instance}); holding the
        #: op pins its identity so ids stay unique
        self._scopes: dict[int, tuple[Operation, dict[object, object]]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for _, entries in self._scopes.values())

    def get(
        self, scope: Operation, kind: object, factory: Callable[[], object]
    ) -> object:
        """The cached analysis for ``(scope, kind)``, building on first use."""
        with self._lock:
            held = self._scopes.get(id(scope))
            entry = held[1].get(kind) if held is not None else None
            if entry is None:
                self.misses += 1
                entry = factory()
                self._scopes.setdefault(id(scope), (scope, {}))[1][kind] = entry
            else:
                self.hits += 1
            return entry

    # -- the analyses the passes and lints share -------------------------

    def known_fields(self, scope: Operation, accelerator: str) -> KnownFieldsAnalysis:
        return self.get(
            scope,
            ("known-fields", accelerator),
            lambda: KnownFieldsAnalysis(accelerator),
        )

    def awaited_tokens(self, fn: Operation) -> AwaitedTokensAnalysis:
        def build() -> AwaitedTokensAnalysis:
            analysis = AwaitedTokensAnalysis()
            analysis.run_function(fn)
            return analysis

        return self.get(fn, "awaited-tokens", build)

    def observed_fields(self, scope: Operation) -> ObservedFieldsAnalysis:
        return self.get(scope, "observed-fields", ObservedFieldsAnalysis)

    def cost(self, scope: Operation) -> "CostAnalysis":
        """The static configuration-cost engine over ``scope`` (a module)."""
        from .cost import CostAnalysis

        return self.get(scope, "cost", lambda: CostAnalysis(scope))

    # -- invalidation ----------------------------------------------------

    def invalidate(self, mutated: Iterable[Operation] | None = None) -> None:
        """Drop entries made stale by mutating ``mutated`` (all, if None).

        An entry is stale when its scope contains, or is contained in, a
        mutated op — a module-scoped analysis dies when any of its functions
        changes, and a function-scoped analysis dies when the whole module
        is rewritten.
        """
        with self._lock:
            if mutated is None:
                self._scopes.clear()
                return
            mutated = list(mutated)
            if not mutated:
                return
            # Defensive: a detached op (no parent chain) can no longer be
            # matched to the scope that used to contain it, so ancestry-based
            # matching would silently keep that scope's stale entries alive.
            # The only safe answer for an unattributable mutation is to drop
            # everything.  (Module roots also have no parent; mutating one
            # invalidates all cached scopes anyway, so the conservative
            # branch is exact there.)
            if any(
                op.parent is None and id(op) not in self._scopes
                for op in mutated
            ):
                self.invalidate()
                return
            self._drop(
                scope_id
                for scope_id, (scope, _) in self._scopes.items()
                if any(_is_related(scope, op) for op in mutated)
            )

    def forget(self, root: Operation) -> None:
        """Drop every entry over ``root`` or an op nested in it.

        For IR that is going away (a module evicted from a cache) rather
        than mutated: unlike :meth:`invalidate`, a root no entry is keyed on
        leaves every other module's entries in place, and the cost is one
        walk of ``root`` however many scopes are cached.
        """
        with self._lock:
            self._drop(id(op) for op in root.walk() if id(op) in self._scopes)

    def _drop(self, scope_ids: Iterable[int]) -> None:
        """Drop every entry of the given scopes; the caller holds the lock."""
        for scope_id in list(scope_ids):
            del self._scopes[scope_id]
