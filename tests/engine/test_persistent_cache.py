"""Robustness of the persistent on-disk cache store.

Every design rule from the :mod:`repro.engine.pcache` docstring is pinned
here: corrupted/truncated/version-skewed/foreign entries are misses (never
crashes, never stale data), concurrent writers cannot torn-write, the
directory respects its size bound, a loaded trace equals a fresh compile
and serves fault-injected runs as it is, and the generator's memory-image
cache persists across (simulated) processes.
"""

import multiprocessing
import os
import pickle

from repro.engine import (
    TraceCache,
    compile_module,
    configure_persistent_cache,
    module_fingerprint,
    run_module_traced,
)
from repro.engine import cache as engine_cache
from repro.engine import executor as engine_executor
from repro.engine.pcache import SCHEMA, PersistentStore
from repro.faults import FaultInjector, FaultRates
from repro.ir import parse_module
from repro.sim import CoSimulator

PROGRAM = """
func.func @main(%x : i64) -> (i64) {
  %n = arith.constant 4 : i64
  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
  %t = accfg.launch %s : !accfg.token<"toyvec">
  accfg.await %t
  %c = arith.constant 3 : i64
  %y = arith.addi %x, %c : i64
  func.return %y : i64
}
"""


def entry_path(store: PersistentStore, kind: str, key: str) -> str:
    return store._path(kind, key)


def saved_trace(store: PersistentStore, key: str = "k"):
    compiled = compile_module(parse_module(PROGRAM))
    store.save_trace(key, compiled)
    return compiled


class TestRoundTrip:
    def test_trace_survives_a_fresh_store(self, tmp_path):
        key = module_fingerprint(parse_module(PROGRAM))
        saved_trace(PersistentStore(str(tmp_path)), key)
        loaded = PersistentStore(str(tmp_path)).load_trace(key)
        assert loaded is not None
        assert loaded.site_count == 2  # one setup, one launch
        sim = CoSimulator(functional=False)
        from repro.engine import TraceExecutor

        assert TraceExecutor(loaded, sim).run("main", [1]) == [4]

    def test_loaded_trace_matches_fresh_compile(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        compiled = saved_trace(store, "k")
        loaded = store.load_trace("k")
        assert loaded.declarations == compiled.declarations
        assert loaded.site_count == compiled.site_count
        assert loaded.functions.keys() == compiled.functions.keys()
        for name, fn in compiled.functions.items():
            assert loaded.functions[name].code == fn.code

    def test_missing_entry_is_a_clean_miss(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        assert store.load("trace", "absent") is None
        assert (store.hits, store.misses, store.rejected) == (0, 1, 0)


class TestCorruptionTolerance:
    def test_truncated_entry_is_a_miss_and_unlinked(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        saved_trace(store, "k")
        path = entry_path(store, "trace", "k")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert store.load_trace("k") is None
        assert store.rejected == 1
        assert not os.path.exists(path)

    def test_garbage_entry_is_a_miss(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        saved_trace(store, "k")
        with open(entry_path(store, "trace", "k"), "wb") as handle:
            handle.write(b"\x00not a pickle at all")
        assert store.load_trace("k") is None
        assert store.rejected == 1

    def test_schema_version_skew_is_a_miss(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        entry = {
            "schema": SCHEMA + "-older",
            "kind": "trace",
            "key": "k",
            "payload": 123,
        }
        with open(entry_path(store, "trace", "k"), "wb") as handle:
            pickle.dump(entry, handle)
        assert store.load("trace", "k") is None
        assert store.rejected == 1
        assert not os.path.exists(entry_path(store, "trace", "k"))

    def test_version_1_trace_is_schema_skew(self, tmp_path):
        # Version 1 stored setups and launches without their site numbers;
        # such an entry must never reach a faulted run.  Version 2 stored
        # flat protocol tuples, which today's executor cannot unpack.
        # Version 3 filed traces under the digest of another serialization.
        # Version 4 gave cmpi an opcode of its own and numbered the later
        # opcodes one higher.  Version 5 pickled source locations as
        # ``SourceLoc`` objects, a class that is gone.
        for old in (
            "repro-cache/1",
            "repro-cache/2",
            "repro-cache/3",
            "repro-cache/4",
            "repro-cache/5",
        ):
            store = PersistentStore(str(tmp_path / old.replace("/", "-")))
            entry = {
                "schema": old,
                "kind": "trace",
                "key": "k",
                "payload": compile_module(parse_module(PROGRAM)),
            }
            with open(entry_path(store, "trace", "k"), "wb") as handle:
                pickle.dump(entry, handle)
            assert SCHEMA != old
            assert store.load_trace("k") is None
            assert (store.hits, store.rejected) == (0, 1)

    def test_foreign_kind_or_key_is_a_miss(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        # A file that lands on trace:k's path but identifies as something
        # else entirely (e.g. a hash collision or a tool writing into the
        # directory) must not be served.
        entry = {
            "schema": SCHEMA,
            "kind": "image",
            "key": "other",
            "payload": [1, 2],
        }
        with open(entry_path(store, "trace", "k"), "wb") as handle:
            pickle.dump(entry, handle)
        assert store.load("trace", "k") is None
        assert store.rejected == 1

    def test_wrong_payload_type_for_trace_is_a_miss(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.save("trace", "k", {"not": "a compiled module"})
        assert store.load_trace("k") is None

    def test_unpicklable_payload_is_skipped_not_fatal(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.save("trace", "k", lambda: None)  # locals don't pickle
        assert store.stores == 0
        assert store.load("trace", "k") is None


class TestEvictionDeterminism:
    """LRU eviction must not depend on listing order or mtime granularity."""

    def test_lru_ticks_strictly_increase(self):
        from repro.engine.pcache import _lru_tick

        ticks = [_lru_tick() for _ in range(1000)]
        assert all(a < b for a, b in zip(ticks, ticks[1:]))

    def test_lru_ticks_unique_across_threads(self):
        import threading

        from repro.engine.pcache import _lru_tick

        collected: list[int] = []
        lock = threading.Lock()

        def worker() -> None:
            mine = [_lru_tick() for _ in range(200)]
            with lock:
                collected.extend(mine)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(set(collected)) == len(collected) == 8 * 200

    def test_identical_mtimes_break_ties_by_path(self, tmp_path):
        store = PersistentStore(str(tmp_path), max_bytes=1 << 20)
        for i in range(4):
            store.save("blob", f"k{i}", b"z" * 256)
        entries = store._entries()
        paths = sorted(path for _, path, _ in entries)
        # Simulate cross-process writers whose ticks collided on a
        # coarse-mtime filesystem: every entry lands on one timestamp.
        for path in paths:
            os.utime(path, ns=(1_000_000, 1_000_000))
        total = sum(size for _, _, size in entries)
        store.max_bytes = total - 1  # exactly one must go
        store._evict()
        survivors = sorted(path for _, path, _ in store._entries())
        # The lexicographically smallest path is the deterministic victim.
        assert survivors == paths[1:]

    def test_load_touch_protects_an_entry_from_eviction(self, tmp_path):
        store = PersistentStore(str(tmp_path), max_bytes=1 << 20)
        store.save("blob", "protected", b"a" * 256)
        store.save("blob", "stale", b"b" * 256)
        # "protected" is older by save order; loading it refreshes its
        # recency, so the size bound evicts "stale" instead.
        assert store.load("blob", "protected") is not None
        store.max_bytes = max(size for _, _, size in store._entries())
        store._evict()
        assert store.load("blob", "protected") is not None
        assert store.load("blob", "stale") is None


class TestEviction:
    def test_size_bound_evicts_oldest_first(self, tmp_path):
        store = PersistentStore(str(tmp_path), max_bytes=1)
        store.save("blob", "a", b"x" * 512)
        store.save("blob", "b", b"y" * 512)
        # The bound admits at most one entry; "a" (older mtime) went first.
        names = [n for n in os.listdir(str(tmp_path)) if n.endswith(".bin")]
        assert len(names) <= 1

    def test_generous_bound_keeps_everything(self, tmp_path):
        store = PersistentStore(str(tmp_path), max_bytes=1 << 20)
        for i in range(8):
            store.save("blob", f"k{i}", b"z" * 64)
        for i in range(8):
            assert store.load("blob", f"k{i}") == b"z" * 64


def _hammer_store(directory: str) -> None:
    from repro.engine import compile_module as _compile
    from repro.engine.pcache import PersistentStore as _Store
    from repro.ir import parse_module as _parse

    store = _Store(directory)
    compiled = _compile(_parse(PROGRAM))
    for _ in range(20):
        store.save_trace("shared-key", compiled)
        store.load_trace("shared-key")


class TestConcurrentWriters:
    def test_parallel_writers_never_torn_write(self, tmp_path):
        workers = [
            multiprocessing.Process(
                target=_hammer_store, args=(str(tmp_path),)
            )
            for _ in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        # Whatever won, the surviving entry is complete and loadable.
        store = PersistentStore(str(tmp_path))
        loaded = store.load_trace("shared-key")
        assert loaded is not None
        assert store.rejected == 0


class TestCacheIntegration:
    def test_cross_process_shaped_hit(self, tmp_path):
        module = parse_module(PROGRAM)
        first = TraceCache(store=PersistentStore(str(tmp_path)))
        first.get_or_compile(module)
        assert first.store.stores == 1
        # A fresh in-memory cache over the same directory models a new
        # process: the compile is skipped, the store reports the hit.
        second = TraceCache(store=PersistentStore(str(tmp_path)))
        compiled = second.get_or_compile(parse_module(PROGRAM))
        fresh = compile_module(parse_module(PROGRAM))
        assert compiled.functions["main"].code == fresh.functions["main"].code
        assert (second.store.hits, second.store.misses) == (1, 0)
        assert (second.hits, second.misses) == (0, 1)

    def test_structural_key_still_hits_persistent_tier(self, tmp_path):
        from repro.ir import structural_key

        module = parse_module(PROGRAM)
        first = TraceCache(store=PersistentStore(str(tmp_path)))
        first.get_or_compile(module, key=structural_key(module))
        second = TraceCache(store=PersistentStore(str(tmp_path)))
        clone = parse_module(PROGRAM)
        second.get_or_compile(clone, key=structural_key(clone))
        assert second.store.hits == 1

    def test_faulted_run_uses_the_disk_entry(self, tmp_path, monkeypatch):
        from repro.ir import structural_key

        TraceCache(store=PersistentStore(str(tmp_path))).get_or_compile(
            parse_module(PROGRAM)
        )
        module = parse_module(PROGRAM)
        cache = TraceCache(store=PersistentStore(str(tmp_path)))

        def refuse(module):
            raise AssertionError("a disk entry must not be recompiled")

        monkeypatch.setattr(engine_cache, "compile_module", refuse)
        monkeypatch.setattr(engine_executor, "compile_module", refuse)
        sim = CoSimulator(
            functional=False,
            faults=FaultInjector(3, FaultRates.uniform(0.0)),
        )
        assert run_module_traced(module, sim, args=[1], cache=cache)[0] == [4]
        assert cache.store.hits == 1
        assert cache.get(structural_key(module)) is not None


class TestImageCachePersistence:
    def test_memory_images_persist_across_processes(self, tmp_path):
        from repro.testing import generator

        try:
            store = configure_persistent_cache(str(tmp_path))
            generator._IMAGE_CACHE.clear()
            memory, _ = generator.build_memory("toyvec", memory_seed=5)
            assert store.stores >= 1
            # New "process": in-memory image cache gone, same directory.
            generator._IMAGE_CACHE.clear()
            fresh = configure_persistent_cache(str(tmp_path))
            again, _ = generator.build_memory("toyvec", memory_seed=5)
            assert fresh.hits >= 1
        finally:
            configure_persistent_cache(None)
            generator._IMAGE_CACHE.clear()
        assert len(memory.buffers) == len(again.buffers)
        for a, b in zip(memory.buffers, again.buffers):
            assert a.addr == b.addr
            assert (a.array == b.array).all()

    def test_rejected_image_entry_regenerates(self, tmp_path):
        from repro.testing import generator

        try:
            store = configure_persistent_cache(str(tmp_path))
            generator._IMAGE_CACHE.clear()
            baseline, _ = generator.build_memory("toyvec", memory_seed=5)
            path = entry_path(store, "image", "toyvec-5")
            with open(path, "wb") as handle:
                handle.write(b"garbage")
            generator._IMAGE_CACHE.clear()
            fresh = configure_persistent_cache(str(tmp_path))
            regenerated, _ = generator.build_memory("toyvec", memory_seed=5)
            assert fresh.rejected >= 1
        finally:
            configure_persistent_cache(None)
            generator._IMAGE_CACHE.clear()
        for a, b in zip(baseline.buffers, regenerated.buffers):
            assert (a.array == b.array).all()
