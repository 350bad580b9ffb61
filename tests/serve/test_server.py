"""End-to-end socket tests: real server, real clients, real concurrency."""

import importlib.util
import os
import threading

import pytest

from repro.engine import TraceCache
from repro.serve import (
    CompileService,
    ReproClient,
    ReproServer,
    probe,
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

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "serve_smoke", os.path.join(REPO, "tools", "serve_smoke.py")
)
serve_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(serve_smoke)


@pytest.fixture()
def server():
    with ReproServer(service=CompileService(cache=TraceCache())) as srv:
        yield srv


def client_for(server: ReproServer) -> ReproClient:
    host, port = server.address
    return ReproClient(host, port, timeout=30.0)


class TestRoundTrip:
    def test_ping(self, server):
        with client_for(server) as client:
            response = client.ping()
            assert response["ok"]
            assert response["result"]["protocol"] == "repro-serve/1"

    def test_compile_and_simulate(self, server):
        with client_for(server) as client:
            compiled = client.compile(PROGRAM, pipeline="full", tenant="t0")
            assert compiled["ok"]
            simulated = client.simulate(PROGRAM, args=[1], tenant="t0")
            assert simulated["ok"]
            assert simulated["result"]["results"] == [4]

    def test_many_requests_one_connection(self, server):
        with client_for(server) as client:
            for index in range(10):
                assert client.lint(PROGRAM)["ok"]
            stats = client.stats()
            assert stats["requests"] == 11  # the stats request counts itself
            assert stats["dedup_hit_rate"] > 0

    def test_malformed_request_keeps_the_connection(self, server):
        with client_for(server) as client:
            bad = client.request("compile", module="")
            assert not bad["ok"]
            assert bad["error"]["type"] == "protocol"
            assert client.ping()["ok"]  # connection survived

    def test_request_ids_echo_back(self, server):
        with client_for(server) as client:
            first = client.ping()
            second = client.ping()
            assert second["id"] == first["id"] + 1


class TestConcurrency:
    def test_concurrent_duplicate_requests_dedup(self, server):
        barrier = threading.Barrier(8)
        failures = []

        def worker() -> None:
            try:
                with client_for(server) as client:
                    barrier.wait(timeout=30)
                    for _ in range(4):
                        response = client.compile(PROGRAM, tenant="fleet")
                        assert response["ok"], response
            except Exception as error:  # noqa: BLE001 - collected for assert
                failures.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        stats = server.service.stats()
        assert stats["requests"] == 32
        assert stats["errors"] == 0
        # 32 identical requests, one computation: everything else was
        # coalesced in flight or served from the outcome cache.
        assert stats["coalesced"] + stats["outcome_hits"] == 31

    def test_mixed_stream_computes_each_compute_key_once(self, server):
        # serve_smoke's timed stream: three generated programs, each sent as
        # a `compile` under `full` and as a `cost`, 96 requests over 8
        # connections.  Whatever the interleaving, every request but the
        # first of its compute key is coalesced or an outcome-cache hit.
        stream = serve_smoke.mixed_stream(serve_smoke.pinned_programs())
        distinct = serve_smoke.compute_keys(stream)
        assert (len(stream), len(distinct)) == (96, 6)
        host, port = server.address
        assert serve_smoke.send_concurrently(host, port, stream) == []
        stats = server.service.stats()
        assert stats["requests"] == len(stream)
        assert stats["errors"] == 0
        assert stats["coalesced"] + stats["outcome_hits"] == len(stream) - len(
            distinct
        )

    def test_tenants_share_the_trace_cache(self, server):
        with client_for(server) as a, client_for(server) as b:
            a.compile(PROGRAM, pipeline="", tenant="alice")
            b.simulate(PROGRAM, args=[1], tenant="bob")
        # Alice's compile published the trace Bob's simulate reused.
        assert server.service.cache.hits >= 1


class TestShutdown:
    def test_shutdown_request_stops_the_server(self):
        server = ReproServer(service=CompileService(cache=TraceCache()))
        server.start()
        host, port = server.address
        assert probe(host, port)
        with ReproClient(host, port) as client:
            response = client.shutdown()
            assert response["ok"]
            assert response["result"]["shutting_down"]
        server.stop()
        assert not probe(host, port)

    def test_stop_is_idempotent(self):
        server = ReproServer(service=CompileService(cache=TraceCache()))
        server.start()
        server.stop()
        server.stop()
