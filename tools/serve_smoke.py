"""CI smoke test for `python -m repro serve` (the serve-smoke job).

Boots a real server, fires ~50 mixed compile/simulate/lint/cost requests at
it from 8 concurrent client connections (several tenants, several pipelines
per module, duplicate-heavy — the workload the dedup tiers exist for), then
checks:

* every request succeeded,
* every response, ``meta`` and ``id`` aside, equals the one a
  ``CompileService(dedup=False)`` computes in this process: a path that
  shares no module, outcome or trace cache with the server,
* the dedup tiers actually engaged (hit rate > 0),
* a `shutdown` request stops the server cleanly.

Exits non-zero with a diagnostic on any failure.
"""

import json
import sys
import threading

sys.path.insert(0, "src")

from repro.engine import TraceCache  # noqa: E402
from repro.serve import (  # noqa: E402
    CompileService,
    ReproClient,
    ReproServer,
    encode,
    probe,
)

PROGRAMS = [
    """
func.func @main(%x : i64) -> (i64) {
  %n = arith.constant 4 : i64
  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
  %t = accfg.launch %s : !accfg.token<"toyvec">
  accfg.await %t
  %c = arith.constant 3 : i64
  %y = arith.addi %x, %c : i64
  func.return %y : i64
}
""",
    """
func.func @main(%x : i64) -> (i64) {
  %n = arith.constant 8 : i64
  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
  %t = accfg.launch %s : !accfg.token<"toyvec">
  accfg.await %t
  %y = arith.muli %x, %n : i64
  func.return %y : i64
}
""",
    # A setup re-issued every iteration: `full` and `dedup` hoist it, so
    # skipping a pipeline, or sharing one module between pipelines, would
    # change the responses.
    """
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
""",
]

CLIENTS = 8
REQUESTS_PER_CLIENT = 7  # 56 total
OPS = ("compile", "simulate", "lint", "cost")
#: each module is requested under several pipelines, so once a request
#: without a pipeline leaves a module's text module cached, the server
#: clones it for the other pipelines
PIPELINES = {
    "compile": ("full", "dedup", "baseline"),
    "simulate": ("", "full"),
    "lint": ("", "full"),
    "cost": ("", "full"),
}


def request_for(index: int, step: int) -> dict:
    op = OPS[step % len(OPS)]
    pipelines = PIPELINES[op]
    request = {
        "op": op,
        "module": PROGRAMS[(index + step) % len(PROGRAMS)],
        # index // 2 decorrelates the pipeline from the module, so every
        # (module, op, pipeline) combination is sent
        "pipeline": pipelines[(index // 2 + step) % len(pipelines)],
        "tenant": f"tenant{index % 4}",
    }
    if op == "simulate":
        request["args"] = [1]
    return request


def client_worker(
    host: str, port: int, index: int, exchanges: list, failures: list
) -> None:
    try:
        with ReproClient(host, port, timeout=60.0) as client:
            for step in range(REQUESTS_PER_CLIENT):
                request = request_for(index, step)
                fields = {k: v for k, v in request.items() if k != "op"}
                response = client.request(request["op"], **fields)
                exchanges.append((request, response))
                if not response.get("ok"):
                    failures.append(f"client {index} step {step}: {response}")
    except Exception as error:  # noqa: BLE001 - reported via failures
        failures.append(f"client {index}: {type(error).__name__}: {error}")


def outcome(response: dict) -> dict:
    """A response as it crossed the wire, without ``meta`` and ``id``."""
    decoded = json.loads(encode(response))
    return {k: v for k, v in decoded.items() if k not in ("meta", "id")}


def mismatches(exchanges: list) -> list[str]:
    """Requests whose response differs from a fresh, share-nothing service's."""
    reference = CompileService(cache=TraceCache(), dedup=False)
    found = []
    for request, response in exchanges:
        want = outcome(reference.handle(dict(request)))
        if outcome(response) != want:
            found.append(
                f"{request['op']} under pipeline {request['pipeline']!r}: "
                f"{outcome(response)} != {want}"
            )
    return found


def main() -> int:
    service = CompileService()
    server = ReproServer(service=service)
    server.start()
    host, port = server.address
    print(f"serve-smoke: server on {host}:{port}")

    exchanges: list = []
    failures: list = []
    threads = [
        threading.Thread(
            target=client_worker, args=(host, port, i, exchanges, failures)
        )
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            failures.append("client thread hung")

    stats = service.stats()
    print(
        f"serve-smoke: {stats['requests']} requests, "
        f"dedup hit rate {stats['dedup_hit_rate']:.1%} "
        f"(coalesced {stats['coalesced']}, outcome hits "
        f"{stats['outcome_hits']}, module hits {stats['module_hits']}), "
        f"{stats['module_parses']} module parse(s), {stats['errors']} error(s)"
    )

    if failures:
        for failure in failures[:10]:
            print(f"serve-smoke: FAIL {failure}", file=sys.stderr)
        return 1
    if stats["requests"] != CLIENTS * REQUESTS_PER_CLIENT:
        print(
            f"serve-smoke: FAIL expected {CLIENTS * REQUESTS_PER_CLIENT} "
            f"requests, saw {stats['requests']}",
            file=sys.stderr,
        )
        return 1
    if stats["errors"]:
        print(
            f"serve-smoke: FAIL {stats['errors']} request(s) errored",
            file=sys.stderr,
        )
        return 1
    differing = mismatches(exchanges)
    if differing:
        for line in differing[:10]:
            print(f"serve-smoke: FAIL response differs from dedup=False: {line}",
                  file=sys.stderr)
        return 1
    print(f"serve-smoke: {len(exchanges)} responses equal a dedup=False "
          f"service's")
    if stats["dedup_hit_rate"] <= 0:
        print(
            "serve-smoke: FAIL dedup tiers never engaged on a "
            "duplicate-heavy workload",
            file=sys.stderr,
        )
        return 1

    # Clean shutdown via the protocol, like a real operator would.
    with ReproClient(host, port) as client:
        response = client.shutdown()
        if not response.get("ok"):
            print(f"serve-smoke: FAIL shutdown refused: {response}",
                  file=sys.stderr)
            return 1
    server.stop()
    if probe(host, port):
        print("serve-smoke: FAIL server still accepting after shutdown",
              file=sys.stderr)
        return 1
    print("serve-smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
