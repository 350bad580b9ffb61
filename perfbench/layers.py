"""Per-layer self time, measured from outside ``src/``.

:class:`Tracer` wraps the public entry points of each ``repro`` module (the
table :data:`LAYERS`) with a span that records its wall time minus the time
of nested wrapped spans: a layer's *self* time.  Callers bind most of these
names with ``from ... import``, so a function is replaced in every loaded
``repro`` module whose namespace holds it — the name is wrapped where its
caller looks it up.  Methods are replaced on their class.  :meth:`uninstall`
restores every original binding.

Spans nest per thread, so the server's handler threads each keep their own
stack.  Nothing is written out until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, qualified name): what each layer's span wraps
LAYERS = (
    ("interp.run", "repro.interp.interpreter", "Interpreter.run"),
    ("sim.memory", "repro.sim.memory", "Memory.read_matrix"),
    ("sim.memory", "repro.sim.memory", "Memory.write_matrix"),
    ("sim.launch", "repro.sim.cosim", "CoSimulator.exec_launch"),
    ("sim.metrics", "repro.sim.metrics", "collect_metrics"),
    ("workloads.build", "repro.workloads.matmul", "build_gemmini_matmul"),
    ("workloads.build", "repro.workloads.matmul", "build_opengemm_matmul"),
    ("ir.identity", "repro.ir.printer", "structural_key"),
    ("ir.identity", "repro.engine.cache", "module_fingerprint"),
    ("ir.parse", "repro.ir.parser", "parse_module"),
    ("ir.print", "repro.ir.printer", "print_operation"),
    ("engine.compile", "repro.engine.compiler", "compile_module"),
    ("engine.execute", "repro.engine.executor", "TraceExecutor.run"),
    ("analysis.cost", "repro.analysis.cost", "CostAnalysis.__init__"),
    ("analysis.cost", "repro.analysis.cost", "compare_with_simulation"),
    ("analysis.cost", "repro.analysis.cost", "format_cost_table"),
    ("analysis.lint", "repro.analysis.lints", "run_lints"),
    ("testing.generate", "repro.testing.generator", "generate_spec"),
    ("testing.generate", "repro.testing.generator", "build_spec"),
    ("testing.oracles", "repro.testing.oracles", "check_subject"),
    ("passes.pipeline", "repro.passes.pass_manager", "PassManager.run"),
    ("serve.service", "repro.serve.service", "CompileService.handle"),
)

#: every layer name, in table order, without duplicates
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))


class Tracer:
    """Self time and call counts per layer, plus per-pass time from
    ``PassManager`` statistics."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: pass name -> seconds, from instrumented PassManager runs
        self.pass_s: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        local = self._local
        lock = self._lock
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    self_s[layer] += elapsed - children
                    calls[layer] += 1

        return traced

    def _instrumented_run(self, run):
        """``PassManager.run`` with ``instrument`` switched on for the call;
        the per-pass seconds it collects are moved into :attr:`pass_s`."""
        pass_s = self.pass_s
        lock = self._lock

        @functools.wraps(run)
        def instrumented(manager, module):
            saved = manager.instrument
            start = len(manager.statistics)
            manager.instrument = True
            try:
                return run(manager, module)
            finally:
                manager.instrument = saved
                collected = manager.statistics[start:]
                del manager.statistics[start:]
                with lock:
                    for stat in collected:
                        pass_s[stat.pass_name] += stat.seconds

        return instrumented

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        _import_callers()
        for layer, module_name, qualname in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                target = original
                if qualname == "PassManager.run":
                    target = self._instrumented_run(original)
                setattr(owner, attr, self._wrap(layer, target))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            traced = self._wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, traced)
                        self._patches.append((loaded, key, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- report ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON copy of everything measured so far, plus the hit and
        miss counters of the process-wide compiled-trace cache."""
        from repro.engine import TRACE_CACHE

        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "pass_s": dict(self.pass_s),
                "trace_cache": [TRACE_CACHE.hits, TRACE_CACHE.misses],
            }


def _import_callers() -> None:
    """Import the modules that bind the wrapped names with ``from ...
    import``, so :meth:`Tracer.install` finds every binding in place."""
    for name in (
        "repro.experiments.common",
        "repro.experiments.fig10_gemmini",
        "repro.experiments.fig11_opengemm",
        "repro.testing.fuzz",
        "repro.testing.oracles",
        "repro.serve",
        "repro.__main__",
    ):
        importlib.import_module(name)
