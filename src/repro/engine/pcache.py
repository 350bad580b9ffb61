"""Persistent content-addressed cache store.

In-process caches (the compiled-trace LRU in :mod:`.cache`, the generator's
memory-image cache) evaporate at process exit, so ``fuzz --jobs N`` shards,
two-phase CI jobs, and repeated experiment sweeps recompile the same modules
over and over.  :class:`PersistentStore` is the on-disk tier underneath
them: a directory of pickle entries, content-addressed by a module's stable
digest (:func:`repro.engine.cache.module_fingerprint`, the SHA-256 of the
``structural_key`` tuple that keys the in-memory tier).  Neither the key
nor its digest depends on the process or ``PYTHONHASHSEED``, so an entry
one process writes is found by the next.

Design rules, each of which a robustness test pins down:

* **Schema versioned** — every entry embeds ``SCHEMA``; a version bump (or a
  foreign file that happens to unpickle) reads as a miss, never as stale
  data served.
* **Atomic writes** — entries are published with
  :func:`repro.ioutil.atomic_write_bytes`; concurrent writers (fuzz shards)
  cannot torn-write, the last complete payload wins.
* **Corruption tolerant** — a truncated, garbled, or wrong-type entry is a
  miss (and is unlinked best-effort); the caller recompiles.
* **Size bounded** — after every store the directory is trimmed to
  ``max_bytes`` by oldest-mtime-first eviction (loads touch their entry's
  mtime, so eviction is LRU-shaped).
* **Degrades, never raises** — a cache directory that vanishes or turns
  unwritable mid-run (operator cleanup, disk pressure, permissions) must
  not take the caller's work down with it.  Every load against a missing
  directory is a miss counted as ``rejected``; after
  :data:`DEGRADE_AFTER` consecutive I/O failures (or a detected missing
  directory) the store flips to ``degraded`` — in-memory-only operation:
  no more disk touches, every load a counted miss — and logs the downgrade
  once.  The serving layer surfaces the flag in its stats.

A compiled trace goes to disk as it is: it holds no IR (setups and launches
carry site numbers, see :func:`repro.dialects.accfg.config_sites`), so an
entry loaded here serves fault-injected runs exactly as a fresh compile does.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
import time

from ..ioutil import atomic_write_bytes
from .compiler import CompiledModule

#: Bump on any change to the entry layout or to the compiled-trace tuple
#: format; old entries then read as misses and are lazily replaced.
#: Version 2: setup/launch tuples carry site numbers, not ``None``.
#: Version 3: runtime ops carry shared runtime records; ``OP_HOST`` replaces
#: ``OP_FOREIGN`` and ``OP_TRAP`` is new.
#: Version 4: traces are filed under the digest of ``structural_key``.
#: Version 5: ``arith.cmpi`` compiles to ``OP_BINOP`` with its predicate
#: function, and the compare opcode's successors are renumbered.
#: Version 6: runtime records carry source locations as text, not
#: ``SourceLoc`` objects.
SCHEMA = "repro-cache/6"

#: Default size bound of one store directory (plenty for every fuzz/CI
#: workload; a full 200-iteration three-backend fuzz run compiles ~2k
#: distinct modules at a few KiB each).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_SUFFIX = ".bin"

#: Consecutive I/O failures before a store stops touching the disk and runs
#: in-memory-only for the rest of the process (see the module docstring).
DEGRADE_AFTER = 3

_log = logging.getLogger("repro.engine.pcache")

#: Process-wide strictly-increasing LRU clock (nanoseconds).  Filesystems
#: with coarse mtime granularity (1 s on some, 1 ns rounded to jiffies on
#: others) let several entries land on the *same* mtime, which would make
#: LRU eviction order depend on directory-listing order.  Every save and
#: every load-touch stamps the entry with the next tick instead, so entries
#: written by one process always have a total recency order; cross-process
#: ties (two writers, same nanosecond) fall back to the path tie-break in
#: :meth:`PersistentStore._entries`.
_lru_clock_lock = threading.Lock()
_lru_clock = 0


def _lru_tick() -> int:
    """The next strictly-increasing LRU timestamp in nanoseconds."""
    global _lru_clock
    with _lru_clock_lock:
        _lru_clock = max(_lru_clock + 1, time.time_ns())
        return _lru_clock


class PersistentStore:
    """One on-disk cache directory; see the module docstring."""

    def __init__(
        self, directory: str, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.max_bytes = max_bytes
        os.makedirs(self.directory, exist_ok=True)
        #: guards the counters and eviction; loads/saves themselves are
        #: already safe (atomic rename publication, bad reads are misses)
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: loads rejected for schema/kind/key mismatch, corruption, or a
        #: missing/broken cache directory (degradation path)
        self.rejected = 0
        #: I/O-level failures (directory gone, unwritable, stat errors)
        self.io_errors = 0
        self._consecutive_io_errors = 0
        #: True once the store gave up on the disk: in-memory-only mode,
        #: every load a miss, every save a no-op (logged once on downgrade)
        self.degraded = False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- graceful degradation ---------------------------------------------

    def _io_failure(self, what: str, error: BaseException | str) -> None:
        """Record one I/O failure; flip to degraded after a streak."""
        with self._lock:
            self.io_errors += 1
            self._consecutive_io_errors += 1
            directory_gone = not os.path.isdir(self.directory)
            if not self.degraded and (
                directory_gone
                or self._consecutive_io_errors >= DEGRADE_AFTER
            ):
                self.degraded = True
                _log.warning(
                    "persistent cache degraded to in-memory-only "
                    "(%s: %s; directory %s%s)",
                    what,
                    error,
                    self.directory,
                    " is gone" if directory_gone else "",
                )

    def _io_ok(self) -> None:
        with self._lock:
            self._consecutive_io_errors = 0

    def _path(self, kind: str, key: str) -> str:
        digest = hashlib.sha256(f"{kind}:{key}".encode()).hexdigest()
        return os.path.join(self.directory, digest + _SUFFIX)

    def load(self, kind: str, key: str) -> object | None:
        """The stored payload, or None on miss/corruption/version skew.

        Never raises: a vanished or unreadable cache directory degrades to
        misses (counted as ``rejected``) rather than failing the caller.
        """
        if self.degraded:
            with self._lock:
                self.misses += 1
                self.rejected += 1
            return None
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != SCHEMA
                or entry.get("kind") != kind
                or entry.get("key") != key
            ):
                raise ValueError("schema or identity mismatch")
        except FileNotFoundError as error:
            with self._lock:
                self.misses += 1
            if not os.path.isdir(self.directory):
                # Not an absent entry — the whole store is gone mid-run.
                with self._lock:
                    self.rejected += 1
                self._io_failure("load", error)
            return None
        except OSError as error:
            # Unreadable entry or directory (permissions, I/O): a rejected
            # miss, and a strike toward in-memory-only degradation.
            with self._lock:
                self.misses += 1
                self.rejected += 1
            self._io_failure("load", error)
            return None
        except Exception:  # noqa: BLE001 - any bad entry is just a miss
            with self._lock:
                self.misses += 1
                self.rejected += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        with self._lock:
            self.hits += 1
        self._io_ok()
        self._touch(path)  # LRU touch
        return entry["payload"]

    def _touch(self, path: str) -> None:
        """Stamp ``path`` with the next strictly-increasing LRU tick."""
        tick = _lru_tick()
        try:
            os.utime(path, ns=(tick, tick))
        except OSError:
            pass

    def save(self, kind: str, key: str, payload: object) -> None:
        """Publish an entry atomically, then enforce the size bound.

        Serialization failures are swallowed: an unpicklable payload means
        this entry stays process-local, not that the caller's work fails.
        A degraded store skips the disk entirely (the atomic writer would
        otherwise silently resurrect a directory an operator deleted).
        """
        if self.degraded:
            return
        try:
            blob = pickle.dumps(
                {"schema": SCHEMA, "kind": kind, "key": key, "payload": payload},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:  # noqa: BLE001 - unpicklable payload: skip
            return
        path = self._path(kind, key)
        try:
            atomic_write_bytes(path, blob)
        except OSError as error:
            self._io_failure("save", error)
            return
        self._io_ok()
        self._touch(path)
        with self._lock:
            self.stores += 1
        self._evict()

    # -- trace-specific convenience --------------------------------------

    def load_trace(self, fingerprint: str) -> CompiledModule | None:
        payload = self.load("trace", fingerprint)
        return payload if isinstance(payload, CompiledModule) else None

    def save_trace(self, fingerprint: str, compiled: CompiledModule) -> None:
        self.save("trace", fingerprint, compiled)

    # -- eviction ---------------------------------------------------------

    def _entries(self) -> list[tuple[int, str, int]]:
        """(mtime_ns, path, size) per entry; racing deletions are skipped.

        The tuple order IS the eviction order: oldest LRU tick first, and —
        for cross-process writers whose ticks collide on a coarse-mtime
        filesystem — the path as a deterministic tie-break, so eviction
        never depends on directory-listing order.
        """
        entries = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, path, stat.st_size))
        return entries

    def _evict(self) -> None:
        with self._lock:
            entries = self._entries()
            total = sum(size for _, _, size in entries)
            if total <= self.max_bytes:
                return
            for _, path, size in sorted(entries):
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                if total <= self.max_bytes:
                    return
