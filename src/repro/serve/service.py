"""The compilation service: shared caches, in-flight dedup, admission.

One :class:`CompileService` instance serves every connection and every
tenant of a server process.  It generalizes the paper's dedup pass from
intra-program to inter-request, in three tiers:

* **In-flight request dedup** — concurrent requests with the same compute
  key (op, module content hash, pipeline, parameters) coalesce onto ONE
  computation: the first requester computes, the rest park on an event and
  share the outcome (including error outcomes — a module that fails to
  parse fails identically for every requester).  This is what makes
  duplicate-heavy concurrent workloads cheap: N tenants submitting the same
  module pay for one compilation.
* **Outcome + module caches** — an identical request that *completed*
  earlier is served from a bounded LRU of outcomes, and a re-request that
  only differs in parameters reuses the parsed-and-optimized module object,
  which keeps the shared :class:`~repro.analysis.AnalysisManager` entries
  (keyed on op identity) alive across requests.  A request under a
  pipeline clones the text's verified, unoptimized module when a request
  without a pipeline left it cached, instead of parsing the text again.
* **Shared engine caches** — all tenants share one
  :class:`~repro.engine.TraceCache` (process-global ``TRACE_CACHE`` by
  default, with whatever persistent tier is attached to it), so a compile
  by tenant A warms the simulate of tenant B.

Admission control bounds the damage any one tenant can do: at most
``max_pending_per_tenant`` of a tenant's requests may be in the service at
once (and ``max_pending`` across all tenants); excess requests are rejected
with an ``admission`` error instead of queueing without bound.  Rejection
is per-request and immediate — a well-behaved tenant is never starved by a
flooding one.

Everything here must be thread-safe: the server runs one handler thread
per connection.  The service's own bookkeeping is lock-guarded; the engine
caches carry their own locks (PR: thread-safety satellites).

Resilience layer (chaos-hardening PR; see ``docs/ROBUSTNESS.md``):

* **Per-request deadlines** — a request carries ``deadline_ms`` (or
  inherits ``default_deadline_ms``); a coalesced waiter whose budget
  expires before the owner publishes gets a typed ``deadline`` error, and
  an owner whose computation outlives the budget still *publishes* the
  outcome (so the client's idempotent retry is a cache hit) but answers
  with ``deadline``.
* **Single-flight rescue** — an owner thread that dies mid-computation
  (chaos injection, a server bug) publishes a typed ``internal`` outcome
  to its flight and wakes every waiter before propagating; the flight is
  cleared, never cached, so a retry recomputes cleanly.  No deadlock, no
  poisoned key.
* **Per-tenant circuit breaker** — ``breaker.threshold`` consecutive
  computation failures open the tenant's circuit for ``breaker.cooldown``
  service requests; while open, the tenant's work is shed with a typed
  ``circuit`` error *before* admission (an abusive tenant stops burning
  pending slots), then one half-open probe decides re-close vs re-open.
* **Graceful degradation** — a persistent store that loses its directory
  runs in-memory-only (see :mod:`repro.engine.pcache`); a trace-engine
  internal error on ``simulate`` falls back to the tree interpreter for
  that request, bit-identical results, counted in ``engine_fallbacks``.
* **Orderly close** — :meth:`CompileService.close` wakes every parked
  waiter with a typed ``shutdown`` error and fails new work fast; no
  thread is left parked on a flight that will never complete.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any

from ..analysis import AnalysisManager
from ..engine import TRACE_CACHE, module_fingerprint, run_module_traced
from ..interp import Interpreter, InterpreterError
from ..ir import parse_module, structural_key, verify_operation
from ..passes import PIPELINES, pipeline_by_name
from ..sim import CoSimulator
from .protocol import (
    DEFAULT_TENANT,
    MODULE_OPS,
    PROTOCOL,
    ProtocolError,
    decode_request,
    encode,
    error_response,
    ok_response,
)


class AdmissionError(Exception):
    """Request rejected by admission control (tenant or service over quota)."""


class ChaosThreadDeath(BaseException):
    """Injected compile-thread death.

    Deliberately a :class:`BaseException` so ``_execute``'s blanket
    ``except Exception`` cannot convert it into a polite error response —
    it must tear through the stack exactly like a real dying thread,
    exercising the single-flight rescue and the handler-thread cleanup.
    """


class ChaosEngineError(RuntimeError):
    """Injected trace-engine internal error (drives the tree fallback)."""


class ServiceChaos:
    """Arms the service to honor per-request ``chaos`` markers.

    Only the chaos campaign constructs one of these; an un-armed service
    (the default) ignores the ``chaos`` request field entirely, so no
    client can crash a production server by sending markers.  Markers:

    * ``{"die": true}`` — the computing thread raises
      :class:`ChaosThreadDeath` mid-``_execute``.
    * ``{"sleep_ms": N}`` — the computation stalls N ms (deadline and
      quota-storm scenarios).
    * ``{"trace_error": true}`` — the trace engine raises
      :class:`ChaosEngineError` on ``simulate``, forcing the
      tree-interpreter fallback.
    """

    def __init__(self) -> None:
        self.deaths = 0
        self.sleeps = 0
        self.trace_errors = 0
        self._lock = threading.Lock()

    def on_execute(self, request: dict[str, Any]) -> None:
        """Called at the top of every computation on an armed service."""
        marker = request.get("chaos")
        if not isinstance(marker, dict):
            return
        sleep_ms = marker.get("sleep_ms")
        if isinstance(sleep_ms, (int, float)) and sleep_ms > 0:
            with self._lock:
                self.sleeps += 1
            time.sleep(sleep_ms / 1e3)
        if marker.get("die"):
            with self._lock:
                self.deaths += 1
            raise ChaosThreadDeath("injected compile-thread death")

    def on_trace(self, request: dict[str, Any]) -> None:
        """Called before the trace engine runs a ``simulate``."""
        marker = request.get("chaos")
        if isinstance(marker, dict) and marker.get("trace_error"):
            with self._lock:
                self.trace_errors += 1
            raise ChaosEngineError("injected trace-engine failure")


@dataclass(frozen=True)
class CircuitBreakerPolicy:
    """Per-tenant breaker knobs.

    The cooldown is measured in *service request count*, not wall time, so
    breaker behavior is deterministic under a seeded campaign: the same
    request sequence opens and half-opens circuits at the same points
    regardless of thread timing.
    """

    enabled: bool = True
    #: consecutive computation failures that open the circuit
    threshold: int = 5
    #: service requests that must pass before the half-open probe
    cooldown: int = 16


class _Breaker:
    """Mutable per-tenant breaker state (guarded by the service lock)."""

    __slots__ = ("failures", "open_until", "probing")

    def __init__(self) -> None:
        self.failures = 0
        #: request-count stamp until which the circuit stays open (0=closed)
        self.open_until = 0
        #: True while the single half-open probe is in flight
        self.probing = False


class _Flight:
    """One computation in progress; duplicate requesters park on ``event``."""

    __slots__ = ("event", "outcome")

    def __init__(self) -> None:
        self.event = threading.Event()
        #: (ok, payload) — payload is the result dict or (type, message)
        self.outcome: tuple[bool, Any] | None = None


def _module_key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CompileService:
    """Thread-safe multi-tenant compile/simulate/lint/cost service.

    ``dedup=False`` disables every request-level tier (in-flight dedup,
    outcome cache, module cache) and is the measured baseline of the timed
    phase of ``tools/serve_smoke.py``: serial request handling, each request
    paying parse + pipeline + execution itself (the engine-level trace cache
    stays on — that tier predates the server).
    """

    def __init__(
        self,
        cache=None,
        analyses: AnalysisManager | None = None,
        dedup: bool = True,
        max_pending: int = 64,
        max_pending_per_tenant: int = 8,
        outcome_cache_size: int = 256,
        module_cache_size: int = 128,
        default_deadline_ms: float | None = None,
        breaker: CircuitBreakerPolicy | None = None,
        chaos: ServiceChaos | None = None,
    ) -> None:
        self.cache = cache if cache is not None else TRACE_CACHE
        self.analyses = analyses if analyses is not None else AnalysisManager()
        self.dedup = dedup
        self.max_pending = max_pending
        self.max_pending_per_tenant = max_pending_per_tenant
        self.outcome_cache_size = outcome_cache_size
        self.module_cache_size = module_cache_size
        #: applied when a request carries no ``deadline_ms`` (None = none)
        self.default_deadline_ms = default_deadline_ms
        self.breaker = breaker if breaker is not None else CircuitBreakerPolicy()
        #: armed only by the chaos campaign; None ignores chaos markers
        self.chaos = chaos
        self.started_at = time.time()
        self._lock = threading.RLock()
        self._in_flight: dict[tuple, _Flight] = {}
        #: compute key -> (ok, payload); completed outcomes, LRU-bounded
        self._outcomes: OrderedDict[tuple, tuple[bool, Any]] = OrderedDict()
        #: (module hash, pipeline) -> parsed-and-optimized module object;
        #: pipeline "" holds the verified text module, which others clone
        self._modules: OrderedDict[tuple, Any] = OrderedDict()
        self._pending: Counter[str] = Counter()
        self._pending_total = 0
        self._breakers: dict[str, _Breaker] = {}
        self._closed = False
        self._close_reason = ""
        # -- counters (all under self._lock) ------------------------------
        self.requests = 0
        self.by_op: Counter[str] = Counter()
        self.by_tenant: Counter[str] = Counter()
        self.coalesced = 0
        self.outcome_hits = 0
        self.module_hits = 0
        self.module_parses = 0
        self.admission_rejected = 0
        self.errors = 0
        self.deadline_expired = 0
        self.circuit_rejected = 0
        self.flight_crashes = 0
        self.engine_fallbacks = 0

    # -- admission --------------------------------------------------------

    def _admit(self, tenant: str) -> None:
        with self._lock:
            if self._pending_total >= self.max_pending:
                self.admission_rejected += 1
                raise AdmissionError(
                    f"service over capacity ({self.max_pending} pending)"
                )
            if self._pending[tenant] >= self.max_pending_per_tenant:
                self.admission_rejected += 1
                raise AdmissionError(
                    f"tenant {tenant!r} over quota "
                    f"({self.max_pending_per_tenant} pending)"
                )
            self._pending[tenant] += 1
            self._pending_total += 1

    def _release(self, tenant: str) -> None:
        with self._lock:
            self._pending[tenant] -= 1
            if self._pending[tenant] <= 0:
                del self._pending[tenant]
            self._pending_total -= 1

    # -- circuit breaker ---------------------------------------------------

    def _breaker_check(self, tenant: str) -> str | None:
        """Shed or admit ``tenant``; an error message when the circuit is open.

        Runs *before* admission so a shed tenant never occupies a pending
        slot.  After the cooldown, exactly one request is let through as
        the half-open probe; its outcome re-closes or re-opens the circuit.
        """
        if not self.breaker.enabled:
            return None
        with self._lock:
            state = self._breakers.get(tenant)
            if state is None or state.open_until <= 0:
                return None
            cooled = self.requests >= state.open_until
            if cooled and not state.probing:
                state.probing = True  # this request is the half-open probe
                return None
            self.circuit_rejected += 1
            return (
                f"tenant {tenant!r} circuit open after {state.failures} "
                f"consecutive failures; retry later"
            )

    def _breaker_record(self, tenant: str, failed: bool | None) -> None:
        """Account one computation outcome toward the tenant's breaker.

        ``failed=None`` is neutral — an infrastructure outcome (admission,
        deadline, shutdown, a crashed flight) that is not evidence about
        the tenant's code either way: the circuit state is kept, and a
        half-open probe slot is freed for the next request to use.
        """
        if not self.breaker.enabled:
            return
        with self._lock:
            state = self._breakers.get(tenant)
            if failed is None:
                if state is not None:
                    state.probing = False
                return
            if not failed:
                if state is not None:
                    self._breakers.pop(tenant, None)  # full reset
                return
            if state is None:
                state = self._breakers.setdefault(tenant, _Breaker())
            state.failures += 1
            if state.probing or state.failures >= self.breaker.threshold:
                # Open (or re-open after a failed half-open probe).
                state.open_until = self.requests + self.breaker.cooldown
                state.probing = False

    # -- orderly close -----------------------------------------------------

    def close(self, reason: str = "server stopping") -> None:
        """Fail fast and wake every parked waiter with a typed error.

        Idempotent; called by :meth:`ReproServer.stop` after the accept
        loop stops.  Any flight still computing keeps its owner thread (it
        will publish into the void), but every *waiter* wakes immediately
        with a ``shutdown`` outcome instead of parking forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._close_reason = reason
            flights = list(self._in_flight.values())
            self._in_flight.clear()
        for flight in flights:
            if flight.outcome is None:
                flight.outcome = (False, ("shutdown", reason))
            flight.event.set()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- request entry points ---------------------------------------------

    def handle_line(self, line: str | bytes) -> bytes:
        """Decode one wire line, handle it, encode the response."""
        try:
            request = decode_request(line)
        except ProtocolError as error:
            with self._lock:
                self.errors += 1
            return encode(error_response({}, "protocol", str(error)))
        return encode(self.handle(request))

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Handle one validated request; always returns a response dict."""
        op = request["op"]
        tenant = request.get("tenant", DEFAULT_TENANT)
        started = time.perf_counter()
        with self._lock:
            self.requests += 1
            self.by_op[op] += 1
            self.by_tenant[tenant] += 1

        def meta(**extra: Any) -> dict[str, Any]:
            wall_ms = (time.perf_counter() - started) * 1e3
            base = {"tenant": tenant, "wall_ms": round(wall_ms, 3)}
            base.update(extra)
            return base

        if op == "ping":
            return ok_response(request, {"protocol": PROTOCOL}, meta())
        if op == "stats":
            return ok_response(request, self.stats(), meta())
        if op == "shutdown":
            # The server watches for this op and stops accepting after the
            # response is written; the service itself has nothing to stop.
            return ok_response(request, {"shutting_down": True}, meta())
        if self._closed:
            return error_response(
                request,
                "shutdown",
                f"service closed: {self._close_reason or 'shutting down'}",
                meta(),
            )

        circuit_message = self._breaker_check(tenant)
        if circuit_message is not None:
            return error_response(request, "circuit", circuit_message, meta())

        deadline_ms = request.get("deadline_ms", self.default_deadline_ms)
        deadline = started + deadline_ms / 1e3 if deadline_ms else None

        try:
            self._admit(tenant)
        except AdmissionError as error:
            self._breaker_record(tenant, failed=None)  # not the tenant's code
            return error_response(request, "admission", str(error), meta())
        try:
            ok, payload, shared = self._compute_shared(op, request, deadline)
        finally:
            self._release(tenant)
        if ok and deadline is not None and time.perf_counter() > deadline:
            # The outcome is published (a retry is a cache hit), but this
            # request's budget is spent: answer with the typed deadline
            # error the client asked for rather than a late success.
            ok, payload, shared = (
                False,
                (
                    "deadline",
                    f"deadline of {deadline_ms:g} ms expired "
                    f"(outcome cached for retry)",
                ),
                shared,
            )
            with self._lock:
                self.deadline_expired += 1
        if ok:
            self._breaker_record(tenant, failed=False)
            return ok_response(
                request,
                payload,
                meta(coalesced=shared == "coalesced", cached=shared == "cached"),
            )
        kind, message = payload
        with self._lock:
            self.errors += 1
        # Infrastructure outcomes (deadline/shutdown/internal) are not the
        # tenant's fault and must not open its circuit.
        infra = kind in ("deadline", "shutdown", "internal")
        self._breaker_record(tenant, failed=None if infra else True)
        return error_response(
            request,
            kind,
            message,
            meta(coalesced=shared == "coalesced", cached=shared == "cached"),
        )

    # -- the dedup core ----------------------------------------------------

    def _compute_key(self, op: str, request: dict[str, Any]) -> tuple:
        return (
            op,
            _module_key(request["module"]),
            self._pipeline_name(op, request),
            request.get("function", "main"),
            tuple(request.get("args") or ()),
            bool(request.get("functional", False)),
        )

    @staticmethod
    def _pipeline_name(op: str, request: dict[str, Any]) -> str:
        pipeline = request.get("pipeline")
        if pipeline is None:
            pipeline = "full" if op == "compile" else ""
        return pipeline

    def _compute_shared(
        self, op: str, request: dict[str, Any], deadline: float | None = None
    ) -> tuple[bool, Any, str]:
        """Run the computation with outcome sharing.

        Returns ``(ok, payload, shared)`` where ``shared`` is ``"computed"``,
        ``"coalesced"`` (an in-flight duplicate did the work) or ``"cached"``
        (a completed duplicate did).  ``deadline`` is an absolute
        ``perf_counter`` stamp bounding how long a coalesced waiter parks.
        """
        if not self.dedup:
            return (*self._execute(op, request), "computed")
        key = self._compute_key(op, request)
        while True:
            with self._lock:
                outcome = self._outcomes.get(key)
                if outcome is not None:
                    self._outcomes.move_to_end(key)
                    self.outcome_hits += 1
                    return (*outcome, "cached")
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = _Flight()
                    self._in_flight[key] = flight
                    owner = True
                else:
                    owner = False
                    self.coalesced += 1
            if not owner:
                if deadline is None:
                    completed = flight.event.wait()
                else:
                    completed = flight.event.wait(
                        max(0.0, deadline - time.perf_counter())
                    )
                if not completed:
                    # The waiter's budget ran out before the owner published.
                    # The flight stays (the owner will finish and cache it);
                    # this request answers with a typed deadline error, and
                    # the client's idempotent retry will hit the cache.
                    with self._lock:
                        self.deadline_expired += 1
                    return (
                        False,
                        (
                            "deadline",
                            "deadline expired while coalesced on an "
                            "in-flight computation",
                        ),
                        "coalesced",
                    )
                if flight.outcome is None:  # pre-rescue safety net: retry
                    continue
                return (*flight.outcome, "coalesced")
            try:
                outcome = self._execute(op, request)
            except BaseException as error:
                # The computing thread is dying (chaos injection, a server
                # bug, KeyboardInterrupt).  Rescue the waiters: publish a
                # typed ``internal`` outcome to the flight — NOT to the
                # outcome cache, a retry must recompute — clear the flight
                # so the key is not poisoned, wake everyone, and only then
                # let the crash propagate.
                with self._lock:
                    self.flight_crashes += 1
                    self._in_flight.pop(key, None)
                if flight.outcome is None:
                    flight.outcome = (
                        False,
                        (
                            "internal",
                            f"computation crashed: "
                            f"{type(error).__name__}: {error}",
                        ),
                    )
                flight.event.set()
                raise
            flight.outcome = outcome
            with self._lock:
                self._outcomes[key] = outcome
                while len(self._outcomes) > self.outcome_cache_size:
                    self._outcomes.popitem(last=False)
                self._in_flight.pop(key, None)
            flight.event.set()
            return (*outcome, "computed")

    # -- computation proper -------------------------------------------------

    def _parsed_module(self, op: str, request: dict[str, Any]):
        """Parse + verify + optimize, reusing the module cache when allowed.

        A miss under a pipeline clones the text's unoptimized module, when
        a request without a pipeline left it cached, instead of parsing the
        text again.  A fresh parse is never cloned on speculation: traffic
        that sends each text under one pipeline would pay for the clone and
        its cache entry and never use them.
        """
        text = request["module"]
        pipeline = self._pipeline_name(op, request)
        if pipeline and pipeline not in PIPELINES:
            raise ProtocolError(
                f"unknown pipeline {pipeline!r}; expected one of "
                f"{', '.join(sorted(PIPELINES))}"
            )
        key = (_module_key(text), pipeline)
        base = None
        with self._lock:
            if self.dedup:
                module = self._cached_module(key)
                if module is not None:
                    return module
                if pipeline:
                    base = self._cached_module((key[0], ""))
            if base is None:
                self.module_parses += 1
        if base is None:
            module = parse_module(text, "<request>")
            verify_operation(module)
        else:
            module = base.clone()
        if pipeline:
            pipeline_by_name(pipeline).run(module)
        if self.dedup:
            with self._lock:
                self._modules[key] = module
                while len(self._modules) > self.module_cache_size:
                    _, evicted = self._modules.popitem(last=False)
                    self.analyses.forget(evicted)
        return module

    def _cached_module(self, key: tuple):
        """The cached module under ``key``, counted as a hit; caller locks."""
        module = self._modules.get(key)
        if module is not None:
            self._modules.move_to_end(key)
            self.module_hits += 1
        return module

    def _execute(self, op: str, request: dict[str, Any]) -> tuple[bool, Any]:
        """One computation; never raises for request-shaped problems.

        :class:`ChaosThreadDeath` deliberately escapes (it derives from
        ``BaseException``): the single-flight rescue and the handler thread
        must see a genuinely dying thread, not a polite error response.
        """
        if self.chaos is not None:
            self.chaos.on_execute(request)
        module = None
        try:
            module = self._parsed_module(op, request)
            handler = getattr(self, f"_op_{op}")
            return (True, handler(module, request))
        except ProtocolError as error:
            return (False, ("protocol", str(error)))
        except Exception as error:  # noqa: BLE001 - reported to the client
            return (False, (type(error).__name__, str(error)))
        finally:
            if module is not None and not self.dedup:
                # No module cache holds this module: nothing can reuse its
                # analyses, and keeping them would pin it in memory.
                self.analyses.forget(module)

    def _op_compile(self, module, request: dict[str, Any]) -> dict[str, Any]:
        key = structural_key(module)
        # Publish the compiled trace into the shared cache so any tenant's
        # later simulate of the same module starts warm.
        self.cache.get_or_compile(module, key=key)
        return {
            "text": str(module),
            "fingerprint": module_fingerprint(module, key),
            "ops": sum(1 for _ in module.walk()),
        }

    def _op_simulate(self, module, request: dict[str, Any]) -> dict[str, Any]:
        functional = bool(request.get("functional", False))
        function = request.get("function", "main")
        args = list(request.get("args") or [])
        sim = CoSimulator(functional=functional)
        try:
            if self.chaos is not None:
                self.chaos.on_trace(request)
            results, sim = run_module_traced(
                module, sim, function=function, args=args, cache=self.cache
            )
        except InterpreterError:
            # A semantic error in the request's program: deterministic under
            # either engine, so report it — falling back would just re-raise.
            raise
        except Exception:  # noqa: BLE001 - engine-internal: degrade
            # Trace-engine internal failure (a compiler bug, injected
            # chaos): degrade to the tree interpreter for this request on a
            # FRESH simulator — same semantics, bit-identical results, just
            # slower.  Counted, never marked in the result payload (the
            # chaos campaign compares results byte-for-byte).
            with self._lock:
                self.engine_fallbacks += 1
            sim = CoSimulator(functional=functional)
            results = Interpreter(module, sim).run(function, args)
        stats = sim.trace.stats(sim.cost_model)
        return {
            "results": [int(value) for value in results],
            "total_cycles": sim.total_cycles,
            "instrs": {
                "total": stats.total_instrs,
                "setup": stats.setup_instrs,
                "calc": stats.calc_instrs,
            },
            "config_bytes": stats.config_bytes,
            "launches": {
                name: device.launch_count
                for name, device in sim.devices.items()
            },
        }

    def _op_lint(self, module, request: dict[str, Any]) -> dict[str, Any]:
        from ..analysis import Severity, run_lints

        diagnostics = run_lints(
            module,
            target=request.get("target"),
            analyses=self.analyses,
        )
        return {
            "diagnostics": [d.to_dict() for d in diagnostics],
            "errors": sum(
                1 for d in diagnostics if d.severity is Severity.ERROR
            ),
            "warnings": sum(
                1 for d in diagnostics if d.severity is Severity.WARNING
            ),
        }

    def _op_cost(self, module, request: dict[str, Any]) -> dict[str, Any]:
        from ..analysis.cost import format_cost_table

        analysis = self.analyses.cost(module)
        return {"table": format_cost_table(analysis)}

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            stats = {
                "protocol": PROTOCOL,
                "uptime_s": round(time.time() - self.started_at, 3),
                "dedup": self.dedup,
                "closed": self._closed,
                "requests": self.requests,
                "by_op": dict(self.by_op),
                "tenants": len(self.by_tenant),
                "pending": self._pending_total,
                "in_flight": len(self._in_flight),
                "coalesced": self.coalesced,
                "outcome_hits": self.outcome_hits,
                "module_hits": self.module_hits,
                "module_parses": self.module_parses,
                "admission_rejected": self.admission_rejected,
                "deadline_expired": self.deadline_expired,
                "circuit_rejected": self.circuit_rejected,
                "circuits_open": sum(
                    1 for s in self._breakers.values() if s.open_until > 0
                ),
                "flight_crashes": self.flight_crashes,
                "engine_fallbacks": self.engine_fallbacks,
                "errors": self.errors,
                "dedup_hit_rate": round(
                    (self.coalesced + self.outcome_hits) / self.requests, 4
                )
                if self.requests
                else 0.0,
                "trace_cache": {
                    "entries": len(self.cache),
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                    "coalesced": getattr(self.cache, "coalesced", 0),
                },
                "analyses": {
                    "entries": len(self.analyses),
                    "hits": self.analyses.hits,
                    "misses": self.analyses.misses,
                },
            }
            store = getattr(self.cache, "store", None)
            if store is not None:
                stats["persistent_store"] = {
                    "degraded": store.degraded,
                    "rejected": store.rejected,
                    "io_errors": store.io_errors,
                    "hits": store.hits,
                    "misses": store.misses,
                }
            return stats


#: ops every service understands (re-exported for the server/CLI)
SERVICE_OPS = MODULE_OPS + ("stats", "ping", "shutdown")
