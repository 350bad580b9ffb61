"""CompileService semantics: dedup tiers, admission control, error sharing."""

import json
import threading
import time

from repro.engine import TraceCache
from repro.serve import CompileService, encode

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

#: a setup re-issued every iteration: ``full`` and ``dedup`` hoist it, so
#: the pipelines' results differ
LOOP_PROGRAM = """
func.func @main(%x : i64) -> (i64) {
  %lb = arith.constant 0 : i64
  %ub = arith.constant 4 : i64
  %one = arith.constant 1 : i64
  %n = arith.constant 8 : i64
  %r = scf.for %i = %lb to %ub step %one iter_args(%acc = %x) -> (i64) {
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    %y = arith.addi %acc, %n : i64
    scf.yield %y : i64
  }
  func.return %r : i64
}
"""


def service(**kwargs) -> CompileService:
    kwargs.setdefault("cache", TraceCache())
    return CompileService(**kwargs)


class TestOps:
    def test_ping(self):
        response = service().handle({"op": "ping"})
        assert response["ok"]
        assert response["result"]["protocol"].startswith("repro-serve/")

    def test_compile_returns_optimized_text(self):
        response = service().handle(
            {"op": "compile", "module": PROGRAM, "pipeline": "full"}
        )
        assert response["ok"]
        assert "accfg.setup" in response["result"]["text"]
        assert len(response["result"]["fingerprint"]) == 64
        assert response["result"]["ops"] > 0

    def test_simulate_runs_the_module(self):
        response = service().handle(
            {"op": "simulate", "module": PROGRAM, "args": [1]}
        )
        assert response["ok"]
        assert response["result"]["results"] == [4]
        assert response["result"]["instrs"]["setup"] > 0
        assert response["result"]["launches"] == {"toyvec": 1}

    def test_lint_and_cost(self):
        svc = service()
        lint = svc.handle({"op": "lint", "module": PROGRAM})
        assert lint["ok"]
        assert lint["result"]["errors"] == 0
        cost = svc.handle({"op": "cost", "module": PROGRAM})
        assert cost["ok"]
        assert "main" in cost["result"]["table"]

    def test_stats_op_reports_requests(self):
        svc = service()
        svc.handle({"op": "ping"})
        response = svc.handle({"op": "stats"})
        assert response["result"]["requests"] == 2
        assert response["result"]["by_op"]["ping"] == 1

    def test_handle_line_rejects_garbage_without_raising(self):
        svc = service()
        response = json.loads(svc.handle_line(b"{nope\n"))
        assert not response["ok"]
        assert response["error"]["type"] == "protocol"
        assert svc.errors == 1

    def test_handle_line_round_trips(self):
        response = json.loads(
            service().handle_line(encode({"op": "ping", "id": 9}))
        )
        assert response["ok"] and response["id"] == 9


class TestErrors:
    def test_unknown_pipeline_is_a_protocol_error(self):
        response = service().handle(
            {"op": "compile", "module": PROGRAM, "pipeline": "warp-speed"}
        )
        assert not response["ok"]
        assert response["error"]["type"] == "protocol"
        assert "warp-speed" in response["error"]["message"]

    def test_unparsable_module_is_reported_not_raised(self):
        response = service().handle({"op": "compile", "module": "not ir"})
        assert not response["ok"]
        assert response["error"]["message"]

    def test_error_outcomes_are_shared(self):
        svc = service()
        first = svc.handle({"op": "compile", "module": "not ir"})
        second = svc.handle({"op": "compile", "module": "not ir"})
        assert first["error"] == second["error"]
        assert second["meta"]["cached"]
        assert svc.outcome_hits == 1


class TestDedupTiers:
    def test_repeated_request_hits_the_outcome_cache(self):
        svc = service()
        first = svc.handle({"op": "compile", "module": PROGRAM})
        second = svc.handle({"op": "compile", "module": PROGRAM})
        assert not first["meta"]["cached"]
        assert second["meta"]["cached"]
        assert second["result"] == first["result"]
        assert svc.stats()["dedup_hit_rate"] == 0.5

    def test_module_cache_reused_across_ops(self):
        svc = service()
        svc.handle({"op": "lint", "module": PROGRAM})
        svc.handle({"op": "cost", "module": PROGRAM})
        # Different compute keys (op differs) but the same parsed module.
        assert svc.outcome_hits == 0
        assert svc.module_hits == 1

    def test_different_args_do_not_share_outcomes(self):
        svc = service()
        one = svc.handle({"op": "simulate", "module": PROGRAM, "args": [1]})
        two = svc.handle({"op": "simulate", "module": PROGRAM, "args": [2]})
        assert one["result"]["results"] == [4]
        assert two["result"]["results"] == [5]
        assert not two["meta"]["cached"]

    def test_dedup_off_disables_every_tier(self):
        svc = service(dedup=False)
        svc.handle({"op": "compile", "module": PROGRAM})
        repeat = svc.handle({"op": "compile", "module": PROGRAM})
        assert not repeat["meta"]["cached"]
        assert not repeat["meta"]["coalesced"]
        assert svc.outcome_hits == 0
        assert svc.module_hits == 0

    def test_evicted_modules_release_their_analyses(self):
        programs = [
            PROGRAM.replace("arith.constant 3", f"arith.constant {k}")
            for k in range(6)
        ]

        def cost_and_lint(svc, texts):
            for text in texts:
                assert svc.handle({"op": "cost", "module": text})["ok"]
                assert svc.handle({"op": "lint", "module": text})["ok"]

        one = service()
        cost_and_lint(one, programs[:1])
        bounded = service(module_cache_size=2)
        cost_and_lint(bounded, programs)
        # Only the two cached modules keep analyses, and eviction costs no
        # hit: lint still reuses the cost request's analyses.
        assert len(bounded.analyses) == 2 * len(one.analyses) > 0
        assert bounded.analyses.hits == 6 * one.analyses.hits > 0

    def test_one_parse_per_text_across_pipelines_and_ops(self, monkeypatch):
        import repro.serve.service as service_module

        verified = []
        verify = service_module.verify_operation
        monkeypatch.setattr(
            service_module,
            "verify_operation",
            lambda module: verified.append(module) or verify(module),
        )
        requests = [
            {"op": op, "module": LOOP_PROGRAM, "pipeline": pipeline, **extra}
            for pipeline in ("", "full", "dedup", "baseline")
            for op, extra in (
                ("compile", {}),
                ("simulate", {"args": [1]}),
                ("cost", {}),
                ("lint", {}),
            )
        ]
        svc = service()
        results = [svc.handle(dict(request)) for request in requests]
        assert svc.stats()["module_parses"] == 1
        assert len(verified) == 1
        # Every request after the first is served a cached module: the
        # text's own, or a clone of it run through the request's pipeline.
        assert svc.stats()["module_hits"] == len(requests) - 1

        reference = service(dedup=False)
        for request, got in zip(requests, results):
            want = reference.handle(dict(request))
            assert got["ok"], got
            assert got["result"] == want["result"], request
        assert reference.module_parses == len(requests)
        setup_instrs = {
            request["pipeline"]: got["result"]["instrs"]["setup"]
            for request, got in zip(requests, results)
            if request["op"] == "simulate"
        }
        assert setup_instrs == {"": 4, "full": 1, "dedup": 1, "baseline": 4}

    def test_a_fresh_parse_is_not_cloned(self):
        # Only a text module a request without a pipeline left cached is
        # cloned: a text sent under one pipeline takes one parse and one
        # cache entry, as it would without the reuse.
        svc = service()
        for pipeline, parses, entries in (
            ("full", 1, 1),
            ("dedup", 2, 2),  # no text module cached yet: parse again
            ("", 3, 3),
            ("baseline", 3, 4),  # cloned from the text module
        ):
            request = {"op": "cost", "module": LOOP_PROGRAM, "pipeline": pipeline}
            assert svc.handle(request)["ok"]
            assert (svc.module_parses, len(svc._modules)) == (parses, entries)

    def test_evicted_text_is_parsed_again(self):
        programs = [
            PROGRAM.replace("arith.constant 3", f"arith.constant {k}")
            for k in range(3)
        ]
        svc = service(module_cache_size=2)
        svc.handle({"op": "cost", "module": programs[0]})
        svc.handle({"op": "cost", "module": programs[0], "pipeline": "full"})
        assert svc.module_parses == 1
        for text in programs[1:]:  # evicts both of programs[0]'s entries
            svc.handle({"op": "cost", "module": text})
        svc.handle({"op": "cost", "module": programs[0], "pipeline": "dedup"})
        assert svc.module_parses == 4

    def test_bounded_module_cache_holds_every_entry(self):
        programs = [
            PROGRAM.replace("arith.constant 3", f"arith.constant {k}")
            for k in range(3)
        ]
        svc = service(module_cache_size=2)
        for text in programs:
            for pipeline in ("", "full", "dedup"):
                for op in ("cost", "lint"):
                    request = {"op": op, "module": text, "pipeline": pipeline}
                    assert svc.handle(request)["ok"]
                    assert len(svc._modules) <= 2
                    # Analyses are held only for modules still cached.
                    cached = [id(module) for module in svc._modules.values()]
                    for scope, _ in svc.analyses._scopes.values():
                        while scope.parent_op is not None:
                            scope = scope.parent_op
                        assert id(scope) in cached

    def test_concurrent_clones_under_eviction_match_dedup_off(self):
        import sys

        texts = [LOOP_PROGRAM.replace("constant 8", f"constant {k}") for k in (8, 9)]
        texts.append(PROGRAM)
        requests = [
            {"op": op, "module": text, "pipeline": pipeline, **extra}
            for text in texts
            for pipeline in ("", "full", "dedup", "baseline")
            for op, extra in (("compile", {}), ("simulate", {"args": [2]}))
        ]
        reference = service(dedup=False)
        want = [reference.handle(dict(r))["result"] for r in requests]
        # A cache smaller than the working set evicts text modules while
        # other threads clone them.
        svc = service(module_cache_size=3, outcome_cache_size=1)
        failures: list = []

        def worker(index: int) -> None:
            for step in range(3 * len(requests)):
                at = (7 * index + step) % len(requests)
                got = svc.handle(dict(requests[at]))
                if not got["ok"] or got["result"] != want[at]:
                    failures.append((requests[at]["pipeline"], got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert len(svc._modules) <= 3
        assert svc.module_parses > len(texts)  # evictions forced re-parses

    def test_dedup_off_keeps_no_analyses(self):
        svc = service(dedup=False)
        svc.handle({"op": "cost", "module": PROGRAM})
        svc.handle({"op": "lint", "module": PROGRAM})
        assert len(svc.analyses) == 0

    def test_outcome_cache_is_bounded(self):
        svc = service(outcome_cache_size=2)
        for value in (1, 2, 3):
            svc.handle({"op": "simulate", "module": PROGRAM, "args": [value]})
        assert len(svc._outcomes) == 2

    def test_concurrent_identical_requests_coalesce(self):
        svc = service()
        release = threading.Event()
        computing = threading.Event()
        calls = []
        real_execute = svc._execute

        def slow_execute(op, request):
            calls.append(op)
            computing.set()
            assert release.wait(timeout=30)
            return real_execute(op, request)

        svc._execute = slow_execute
        request = {"op": "compile", "module": PROGRAM, "pipeline": "full"}
        responses = [None] * 4

        def worker(index: int) -> None:
            responses[index] = svc.handle(dict(request))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        threads[0].start()
        assert computing.wait(timeout=30)
        for thread in threads[1:]:
            thread.start()
        # The duplicates must be parked in flight before the owner finishes.
        deadline = time.monotonic() + 30
        while svc.coalesced < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert len(calls) == 1  # one computation served all four
        assert all(r["ok"] for r in responses)
        assert sum(1 for r in responses if r["meta"]["coalesced"]) == 3
        assert svc.coalesced == 3


class TestAdmission:
    def test_tenant_quota_rejects_excess(self):
        svc = service(max_pending_per_tenant=1)
        release = threading.Event()
        computing = threading.Event()
        real_execute = svc._execute

        def slow_execute(op, request):
            # Only the probe request blocks; everything else runs normally.
            if not computing.is_set():
                computing.set()
                assert release.wait(timeout=30)
            return real_execute(op, request)

        svc._execute = slow_execute
        background = threading.Thread(
            target=svc.handle,
            args=({"op": "compile", "module": PROGRAM, "tenant": "t0"},),
        )
        background.start()
        assert computing.wait(timeout=30)
        # Same tenant, *different* module: cannot coalesce, must be admitted.
        rejected = svc.handle(
            {"op": "compile", "module": PROGRAM + "\n", "tenant": "t0"}
        )
        other = svc.handle(
            {"op": "lint", "module": PROGRAM, "tenant": "t1"}
        )
        release.set()
        background.join(timeout=30)
        assert not rejected["ok"]
        assert rejected["error"]["type"] == "admission"
        assert other["ok"]  # a different tenant is never starved
        assert svc.admission_rejected == 1

    def test_global_cap_rejects_excess(self):
        svc = service(max_pending=0)
        response = svc.handle({"op": "lint", "module": PROGRAM})
        assert not response["ok"]
        assert response["error"]["type"] == "admission"

    def test_pending_drains_after_completion(self):
        svc = service(max_pending_per_tenant=1)
        for _ in range(3):
            assert svc.handle({"op": "lint", "module": PROGRAM})["ok"]
        assert svc.stats()["pending"] == 0
