"""The serving resilience layer: deadlines, breaker, rescue, degradation.

Each class pins one recovery mechanism of the chaos-hardening PR against
the failure it exists for; the chaos campaign (test_chaos.py) then drives
them all at once under a seeded schedule.
"""

import json
import socket
import threading
import time

import pytest

import repro.serve.service as service_module
from repro.engine import TraceCache
from repro.serve import (
    ChaosThreadDeath,
    CircuitBreakerPolicy,
    CompileService,
    ReproClient,
    ReproServer,
    RetryPolicy,
    ServeClientError,
    ServiceChaos,
    encode,
)

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

TRAP_PROGRAM = """
func.func @main(%a : index, %b : index) -> (index) {{
  %r = {op} %a, %b : index
  func.return %r : index
}}
"""

BAD_PROGRAM = """
func.func @main(%x : i64) -> (i64) {
  %y = arith.bogus %x : i64
  func.return %y : i64
}
"""


def service(**kwargs) -> CompileService:
    kwargs.setdefault("cache", TraceCache())
    return CompileService(**kwargs)


class TestDeadlines:
    def test_waiter_times_out_with_typed_deadline_error(self):
        svc = service(chaos=ServiceChaos())
        # Owner computes slowly (chaos stall); a coalesced waiter with a
        # tiny deadline must give up with a typed error, not park forever.
        owner_response = {}

        def owner():
            owner_response.update(
                svc.handle(
                    {
                        "op": "simulate",
                        "module": PROGRAM,
                        "args": [1],
                        "chaos": {"sleep_ms": 300},
                    }
                )
            )

        thread = threading.Thread(target=owner, daemon=True)
        thread.start()
        time.sleep(0.05)  # let the owner take the flight
        waiter = svc.handle(
            {
                "op": "simulate",
                "module": PROGRAM,
                "args": [1],
                "deadline_ms": 50,
            }
        )
        assert not waiter["ok"]
        assert waiter["error"]["type"] == "deadline"
        thread.join(timeout=5.0)
        assert owner_response["ok"]  # the owner still published
        assert svc.deadline_expired == 1
        # The outcome was cached: an immediate retry is served instantly.
        retry = svc.handle(
            {"op": "simulate", "module": PROGRAM, "args": [1], "deadline_ms": 50}
        )
        assert retry["ok"]
        assert retry["meta"]["cached"]

    def test_owner_overrunning_deadline_answers_deadline_error(self):
        svc = service(chaos=ServiceChaos())
        response = svc.handle(
            {
                "op": "simulate",
                "module": PROGRAM,
                "args": [2],
                "deadline_ms": 20,
                "chaos": {"sleep_ms": 80},
            }
        )
        assert not response["ok"]
        assert response["error"]["type"] == "deadline"
        # ... but the work was published for the retry to reuse.
        retry = svc.handle({"op": "simulate", "module": PROGRAM, "args": [2]})
        assert retry["ok"]
        assert retry["meta"]["cached"]

    def test_default_deadline_applies_when_request_has_none(self):
        svc = service(chaos=ServiceChaos(), default_deadline_ms=20)
        response = svc.handle(
            {
                "op": "simulate",
                "module": PROGRAM,
                "args": [3],
                "chaos": {"sleep_ms": 80},
            }
        )
        assert not response["ok"]
        assert response["error"]["type"] == "deadline"

    def test_generous_deadline_is_invisible(self):
        svc = service(default_deadline_ms=30_000)
        response = svc.handle(
            {"op": "simulate", "module": PROGRAM, "args": [1]}
        )
        assert response["ok"]
        assert svc.deadline_expired == 0


class TestCircuitBreaker:
    def request(self, svc, tenant="t0", module=BAD_PROGRAM):
        return svc.handle(
            {"op": "lint", "module": module, "tenant": tenant}
        )

    def test_threshold_failures_open_the_circuit(self):
        svc = service(breaker=CircuitBreakerPolicy(threshold=3, cooldown=4))
        for _ in range(3):
            response = self.request(svc)
            assert response["error"]["type"] != "circuit"
        shed = self.request(svc)
        assert shed["error"]["type"] == "circuit"
        assert svc.circuit_rejected == 1

    def test_success_resets_the_failure_streak(self):
        svc = service(breaker=CircuitBreakerPolicy(threshold=3, cooldown=4))
        for _ in range(2):
            self.request(svc)
        assert self.request(svc, module=PROGRAM)["ok"]
        for _ in range(2):
            self.request(svc)
        # 2 + 2 failures, but never 3 consecutive: circuit stays closed.
        assert self.request(svc, module=PROGRAM)["ok"]
        assert svc.circuit_rejected == 0

    def test_half_open_probe_recloses_on_success(self):
        svc = service(breaker=CircuitBreakerPolicy(threshold=2, cooldown=2))
        for _ in range(2):
            self.request(svc)
        assert self.request(svc)["error"]["type"] == "circuit"
        # Cooldown is counted in service requests; burn it down with
        # another tenant's traffic.
        for _ in range(3):
            assert self.request(svc, tenant="other", module=PROGRAM)["ok"]
        probe = self.request(svc, module=PROGRAM)  # the half-open probe
        assert probe["ok"]
        assert self.request(svc, module=PROGRAM)["ok"]  # circuit closed

    def test_failed_probe_reopens(self):
        svc = service(breaker=CircuitBreakerPolicy(threshold=2, cooldown=2))
        for _ in range(2):
            self.request(svc)
        for _ in range(3):
            self.request(svc, tenant="other", module=PROGRAM)
        probe = self.request(svc)  # half-open probe fails again
        assert probe["error"]["type"] != "circuit"
        assert self.request(svc)["error"]["type"] == "circuit"

    def test_open_circuit_does_not_burn_admission_slots(self):
        svc = service(
            breaker=CircuitBreakerPolicy(threshold=1, cooldown=10),
            max_pending_per_tenant=1,
        )
        self.request(svc)  # opens
        assert self.request(svc)["error"]["type"] == "circuit"
        assert svc.admission_rejected == 0

    def test_breaker_ignores_infrastructure_errors(self):
        svc = service(
            breaker=CircuitBreakerPolicy(threshold=2, cooldown=4),
            chaos=ServiceChaos(),
        )
        for index in range(4):
            response = svc.handle(
                {
                    "op": "simulate",
                    "module": PROGRAM,
                    "args": [index],
                    "tenant": "t0",
                    "deadline_ms": 10,
                    "chaos": {"sleep_ms": 50},
                }
            )
            assert response["error"]["type"] == "deadline"
        # Four deadline errors never open the circuit.
        assert self.request(svc, module=PROGRAM)["ok"]

    def test_disabled_breaker_never_sheds(self):
        svc = service(breaker=CircuitBreakerPolicy(enabled=False))
        for _ in range(20):
            assert self.request(svc)["error"]["type"] != "circuit"


class TestFlightCrashRescue:
    def test_waiters_get_typed_internal_error_not_deadlock(self):
        svc = service(chaos=ServiceChaos())
        request = {"op": "simulate", "module": PROGRAM, "args": [7]}
        barrier = threading.Barrier(2)
        waiter_response = {}
        owner_died = threading.Event()

        def owner():
            barrier.wait()
            try:
                svc.handle(dict(request, chaos={"sleep_ms": 100, "die": True}))
            except ChaosThreadDeath:
                owner_died.set()

        def waiter():
            barrier.wait()
            time.sleep(0.03)  # park behind the owner's flight
            waiter_response.update(svc.handle(dict(request)))

        threads = [
            threading.Thread(target=owner, daemon=True),
            threading.Thread(target=waiter, daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert owner_died.is_set()
        assert not waiter_response["ok"]
        assert waiter_response["error"]["type"] == "internal"
        assert svc.flight_crashes == 1

    def test_crash_outcome_is_not_cached_and_key_not_poisoned(self):
        svc = service(chaos=ServiceChaos())
        request = {"op": "simulate", "module": PROGRAM, "args": [8]}
        with pytest.raises(ChaosThreadDeath):
            svc.handle(dict(request, chaos={"die": True}))
        assert svc.stats()["in_flight"] == 0
        retry = svc.handle(dict(request))
        assert retry["ok"]
        assert not retry["meta"]["cached"]  # recomputed, not a stale crash
        assert retry["result"]["results"] == [11]


class TestServiceClose:
    def test_close_wakes_parked_waiters_with_shutdown_error(self):
        svc = service(chaos=ServiceChaos())
        request = {"op": "simulate", "module": PROGRAM, "args": [9]}
        responses = []

        def owner():
            try:
                svc.handle(dict(request, chaos={"sleep_ms": 2000}))
            except Exception:
                pass

        def waiter():
            responses.append(svc.handle(dict(request)))

        owner_thread = threading.Thread(target=owner, daemon=True)
        owner_thread.start()
        time.sleep(0.05)
        waiter_threads = [
            threading.Thread(target=waiter, daemon=True) for _ in range(4)
        ]
        for thread in waiter_threads:
            thread.start()
        time.sleep(0.05)
        svc.close("test teardown")
        for thread in waiter_threads:
            thread.join(timeout=2.0)
        assert not any(thread.is_alive() for thread in waiter_threads)
        assert len(responses) == 4
        for response in responses:
            assert not response["ok"]
            assert response["error"]["type"] == "shutdown"

    def test_closed_service_fails_new_work_fast_but_answers_ping(self):
        svc = service()
        svc.close("done")
        refused = svc.handle({"op": "compile", "module": PROGRAM})
        assert refused["error"]["type"] == "shutdown"
        assert svc.handle({"op": "ping"})["ok"]
        assert svc.handle({"op": "stats"})["ok"]
        svc.close("again")  # idempotent


class TestEngineFallback:
    def test_trace_engine_crash_degrades_to_tree_interpreter(self, monkeypatch):
        svc = service()
        reference = svc.handle(
            {"op": "simulate", "module": PROGRAM, "args": [5]}
        )
        assert reference["ok"]

        def explode(*args, **kwargs):
            raise RuntimeError("trace engine internal bug")

        monkeypatch.setattr(service_module, "run_module_traced", explode)
        svc2 = service()
        response = svc2.handle(
            {"op": "simulate", "module": PROGRAM, "args": [5]}
        )
        assert response["ok"]
        assert svc2.engine_fallbacks == 1
        # Bit-identical to the trace-engine result: same canonical JSON.
        assert json.dumps(response["result"], sort_keys=True) == json.dumps(
            reference["result"], sort_keys=True
        )

    def test_semantic_errors_are_not_masked_by_fallback(self):
        svc = service()
        response = svc.handle(
            {"op": "simulate", "module": PROGRAM, "function": "nope"}
        )
        assert not response["ok"]
        assert response["error"]["type"] == "InterpreterError"
        assert svc.engine_fallbacks == 0
        # Arithmetic traps are the program's errors too.
        for op, args, message in (
            ("arith.divui", [5, 0], "arith.divui by zero"),
            ("arith.shli", [5, -1], "arith.shli by a negative count"),
        ):
            svc = service()
            response = svc.handle(
                {"op": "simulate", "module": TRAP_PROGRAM.format(op=op), "args": args}
            )
            assert not response["ok"]
            assert response["error"]["message"] == message
            assert svc.engine_fallbacks == 0

    def test_chaos_trace_error_marker_takes_fallback_path(self):
        svc = service(chaos=ServiceChaos())
        response = svc.handle(
            {
                "op": "simulate",
                "module": PROGRAM,
                "args": [5],
                "chaos": {"trace_error": True},
            }
        )
        assert response["ok"]
        assert response["result"]["results"] == [8]
        assert svc.engine_fallbacks == 1


class TestFrameBound:
    def test_oversized_frame_gets_protocol_error_and_connection_survives(self):
        server = ReproServer(
            service=service(), max_frame_bytes=4096
        ).start()
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"x" * 10_000 + b"\n")
                response = json.loads(reader.readline())
                assert not response["ok"]
                assert response["error"]["type"] == "protocol"
                assert "exceeds" in response["error"]["message"]
                # Same connection still serves well-formed requests.
                sock.sendall(encode({"id": 1, "op": "ping"}))
                assert json.loads(reader.readline())["ok"]
        finally:
            server.stop()

    def test_frame_at_the_bound_is_served(self):
        server = ReproServer(service=service(), max_frame_bytes=4096).start()
        try:
            host, port = server.address
            with ReproClient(host, port) as client:
                padding = "x" * 3000
                response = client.request("ping", note=padding)
                assert response["ok"]
        finally:
            server.stop()


class TestClientRetry:
    def test_backoff_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        c = RetryPolicy(seed=8)
        delays_a = [a.delay(k) for k in range(4)]
        assert delays_a == [b.delay(k) for k in range(4)]
        assert delays_a != [c.delay(k) for k in range(4)]
        # Exponential envelope with jitter in [0.5, 1.0] of the base curve.
        for attempt, delay in enumerate(delays_a):
            nominal = a.backoff_base * a.backoff_factor**attempt
            assert 0.5 * nominal <= delay <= nominal

    def test_client_reconnects_and_resends_same_id(self):
        server = ReproServer(service=service()).start()
        try:
            host, port = server.address
            client = ReproClient(
                host, port, retry=RetryPolicy(backoff_base=0.01)
            )
            assert client.ping()["ok"]
            # Sever the transport under the client; the next request must
            # transparently reconnect and still complete.
            client._sock.shutdown(socket.SHUT_RDWR)
            response = client.request(
                "simulate", module=PROGRAM, args=[1]
            )
            assert response["ok"]
            assert client.retries >= 1
            client.close()
        finally:
            server.stop()

    def test_retry_resend_is_idempotent_via_outcome_cache(self):
        svc = service()
        server = ReproServer(service=svc).start()
        try:
            host, port = server.address
            client = ReproClient(
                host, port, retry=RetryPolicy(backoff_base=0.01)
            )
            payload = client.next_payload(
                "simulate", module=PROGRAM, args=[4]
            )
            # First transmission reaches the service but the connection
            # dies before the response: the chaos CONN_RESET shape.
            client._sock.sendall(encode(payload))
            time.sleep(0.1)
            client._teardown()
            response = client.send_payload(payload)
            assert response["ok"]
            assert response["meta"]["cached"]  # served from the outcome cache
            assert svc.outcome_hits >= 1
            client.close()
        finally:
            server.stop()

    def test_connect_retry_budget_exhausts_with_typed_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServeClientError, match="attempts"):
            ReproClient(
                "127.0.0.1",
                dead_port,
                retry=RetryPolicy(max_retries=2, backoff_base=0.005),
            )
