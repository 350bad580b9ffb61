"""Structurally keyed cache of compiled traces.

The fuzzer's differential oracles execute the *same optimized module*
over and over: several pipelines routinely converge to identical IR (e.g.
``dedup`` and ``full`` when there is nothing to overlap), and experiment
sweeps re-run one module per size point.  Keying compiled traces on the
module's identity makes every such re-execution skip compilation entirely.

Key = the module's :func:`repro.ir.structural_key`, a tuple of ints and
strings that pins everything the compiled form depends on: op structure,
SSA topology, attributes (field names, accelerator names), and types.
Mutating a module in place therefore changes its key and misses the cache
— there is no in-place invalidation to get wrong.  Device behavior is
resolved at *execution* time (the compiled stream stores accelerator
names, not device objects), so one entry serves every backend registry
state and cost model.

Two tiers.  The in-memory LRU above is process-local; an optional
:class:`repro.engine.pcache.PersistentStore` backs it on disk so compiled
traces survive across processes (``fuzz --jobs N`` shards, two-phase CI,
repeated sweeps).  The disk tier files an entry under
:func:`module_fingerprint`, the SHA-256 of the key, which depends on
neither the process nor ``PYTHONHASHSEED``.  Attach a store explicitly with
:func:`configure_persistent_cache` or implicitly via the
``REPRO_CACHE_DIR`` environment variable (which is how forked/spawned fuzz
workers inherit the cache directory).
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict

from ..dialects.builtin import ModuleOp
from ..ir.printer import structural_key
from .compiler import CompiledModule, compile_module
from .pcache import DEFAULT_MAX_BYTES, PersistentStore


def module_fingerprint(module: ModuleOp, key: tuple | None = None) -> str:
    """The stable digest of ``module``: SHA-256 of its structural key.

    ``key`` is ``structural_key(module)`` when the caller already holds it.
    The key holds only ints and strings, so its ``repr`` is an unambiguous
    encoding that no process or hash seed changes.
    """
    if key is None:
        key = structural_key(module)
    return hashlib.sha256(repr(key).encode()).hexdigest()


class _InFlight:
    """One compilation in progress; concurrent requesters park on ``event``."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: CompiledModule | None = None
        self.error: BaseException | None = None


class TraceCache:
    """Bounded LRU mapping structural keys to compiled traces.

    ``store`` (optional) is the persistent tier: in-memory misses consult
    it before compiling, and fresh compiles are published to it.  Its
    hit/miss counters are separate from the in-process ones — a warm
    cross-process run shows up as ``store.hit_rate``, never inflates
    :attr:`hit_rate`.

    Thread-safe with single-flight semantics: the LRU bookkeeping is guarded
    by a lock, and concurrent ``get_or_compile`` calls for the same key
    coalesce onto one compilation — the first caller compiles (outside the
    lock, so unrelated keys proceed in parallel) while the rest park on an
    event and share the result.  ``coalesced`` counts the callers that
    waited on someone else's compile; they also count as hits.
    """

    def __init__(
        self, maxsize: int = 256, store: PersistentStore | None = None
    ) -> None:
        self.maxsize = maxsize
        self.store = store
        self._entries: OrderedDict[tuple, CompiledModule] = OrderedDict()
        self._lock = threading.RLock()
        self._in_flight: dict[tuple, _InFlight] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def attach_store(self, store: PersistentStore | None) -> None:
        self.store = store

    def get(self, key: tuple) -> CompiledModule | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, compiled: CompiledModule) -> None:
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def _compile_miss(self, module: ModuleOp, key: tuple) -> CompiledModule:
        """The miss path proper: persistent tier, then a fresh compile."""
        store = self.store
        if store is not None:
            digest = module_fingerprint(module, key)
            compiled = store.load_trace(digest)
            if compiled is None:
                compiled = compile_module(module)
                store.save_trace(digest, compiled)
            return compiled
        return compile_module(module)

    def get_or_compile(
        self, module: ModuleOp, key: tuple | None = None
    ) -> CompiledModule:
        """The compiled trace for ``module``, compiling on first sight.

        ``key`` is ``structural_key(module)`` when the caller already holds
        it (the fuzz oracles key their own outcome cache with it).
        """
        if key is None:
            key = structural_key(module)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._in_flight[key] = flight
                    owner = True
                else:
                    owner = False
                    self.hits += 1
                    self.coalesced += 1
            if not owner:
                flight.event.wait()
                if flight.error is not None:
                    raise flight.error
                result = flight.result
                if result is not None:
                    return result
                # The owner vanished without a result (cleared mid-flight);
                # retry from the top.
                continue
            self.misses += 1
            try:
                compiled = self._compile_miss(module, key)
            except BaseException as error:
                flight.error = error
                with self._lock:
                    self._in_flight.pop(key, None)
                flight.event.set()
                raise
            self.put(key, compiled)
            flight.result = compiled
            with self._lock:
                self._in_flight.pop(key, None)
            flight.event.set()
            return compiled

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.coalesced = 0


#: Process-wide compiled-trace cache (the fuzzer, oracles, and experiment
#: runners all share it; entries are immutable so sharing is safe).
TRACE_CACHE = TraceCache()


def configure_persistent_cache(
    directory: str | None, max_bytes: int = DEFAULT_MAX_BYTES
) -> PersistentStore | None:
    """Attach (or detach, with ``None``) the process-wide persistent tier.

    Also exports ``REPRO_CACHE_DIR`` so worker processes forked/spawned by
    ``fuzz --jobs N`` attach the same directory.
    """
    if directory is None:
        TRACE_CACHE.attach_store(None)
        os.environ.pop("REPRO_CACHE_DIR", None)
        return None
    store = PersistentStore(directory, max_bytes=max_bytes)
    TRACE_CACHE.attach_store(store)
    os.environ["REPRO_CACHE_DIR"] = store.directory
    return store


def active_persistent_store() -> PersistentStore | None:
    """The persistent tier of the process-wide cache, if any."""
    return TRACE_CACHE.store


def _attach_from_env() -> None:
    directory = os.environ.get("REPRO_CACHE_DIR")
    if directory:
        try:
            TRACE_CACHE.attach_store(PersistentStore(directory))
        except OSError:
            pass  # unusable directory: stay in-memory only


_attach_from_env()
