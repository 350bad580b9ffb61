"""repro.engine — trace-compiled execution.

Lowers verified modules to flat, preallocated instruction streams
(:mod:`.compiler`), executes them with a tight dispatch loop that is
bit-identical to the tree interpreter (:mod:`.executor`), and caches
compiled traces by content hash (:mod:`.cache`) with an optional on-disk
persistent tier (:mod:`.pcache`).  See docs/PERFORMANCE.md.
"""

from .cache import (
    TRACE_CACHE,
    TraceCache,
    active_persistent_store,
    configure_persistent_cache,
    module_fingerprint,
)
from .compiler import (
    CompiledFunction,
    CompiledModule,
    compile_module,
)
from .executor import TraceExecutor, run_module_traced
from .pcache import PersistentStore

__all__ = [
    "TRACE_CACHE",
    "TraceCache",
    "active_persistent_store",
    "configure_persistent_cache",
    "module_fingerprint",
    "PersistentStore",
    "CompiledFunction",
    "CompiledModule",
    "compile_module",
    "TraceExecutor",
    "run_module_traced",
]
