"""``serve_mixed``: a closed loop of two connections against a
``python -m repro serve`` subprocess.

The seeded request stream mixes ``compile``/``simulate``/``cost``/``lint``
over a pool of generated programs plus a few matmul modules (the largest
IR the analyses see).  About a third of the requests repeat a
recent one, so they are answered from the outcome cache; the rest are
computed, and ``simulate`` requests with new arguments on a recently used
module miss the outcome cache but hit the module and trace caches.  Hits
stay under half of the stream so the latency median falls among computed
requests.

Every response is checked against a reference computed in this process on a
private ``TraceCache``; ``simulate`` references come from the tree
``Interpreter``.  A mismatch or a non-ok response fails the operation.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass

from common import (
    BENCH_DIR,
    ROOT,
    SETUP_REPS,
    HostSpeed,
    child_env,
    floor_cosim_empty_us,
    layer_metrics,
)
from metrics import Tally, median, percentile

CONNECTIONS = 2
POOL_PROGRAMS = 400
#: stream length per second of ``--seconds``; more than a run can send
STREAM_PER_S = 400
#: requests per traced pass, per second of ``--seconds``
TRACED_REQUESTS_PER_S = 40
OPS = ("compile", "simulate", "cost", "lint")
WEIGHTS = (30, 35, 15, 20)
PIPELINES_FOR = {
    "compile": ("full", "dedup", "baseline"),
    "simulate": ("", "full"),
    "cost": ("", "full"),
    "lint": ("", "full"),
}
#: share of requests that repeat one of the last RECENT distinct requests
#: (the server's outcome cache holds 256, so a repeat is always a hit)
REPEAT_SHARE = 0.35
RECENT = 48
#: share of new requests that reuse one of the last few modules
LOCAL_SHARE = 0.35
LARGE_SHARE = 0.05
PINGS = 200
#: seconds of load between two host-speed probes in the timed window
SEGMENT_S = 1.0
PROBES_PER_BREAK = 3
#: the server's peak RSS is read once this many requests have been sent:
#: its analysis cache grows with every module it sees, so a peak taken at
#: the end of a timed window would grow with throughput
RSS_AFTER = 1500
LAYERS_MARKER = "PERFBENCH-LAYERS "


@dataclass(frozen=True)
class PoolModule:
    index: int
    text: str
    #: fixed ``main`` arguments; None draws generated-program arguments
    args: tuple[int, ...] | None = None

    def draw_args(self, rng: random.Random) -> list[int]:
        if self.args is not None:
            return list(self.args)
        # (branch condition, trip count of the runtime-zero loops)
        return [rng.randint(0, 1), rng.choice((0, 0, 1, 2))]


def build_pool(seed: int) -> tuple[list[PoolModule], list[PoolModule], list]:
    """Generated programs, the large modules, and the generated programs'
    memory images."""
    from repro.testing.generator import PROFILES, build_spec, generate_spec
    from repro.workloads.matmul import (
        build_gemmini_matmul,
        build_gemmini_os_matmul,
        build_opengemm_matmul,
    )

    rng = random.Random(f"{seed}:pool")
    backends = sorted(PROFILES)
    generated, memories = [], []
    for index in range(POOL_PROGRAMS):
        spec = generate_spec(rng, backends[index % len(backends)])
        built = build_spec(spec, memory_seed=index)
        generated.append(PoolModule(index, str(built.module)))
        memories.append(built.memory)
    base = len(generated)
    large = [
        PoolModule(base + offset, str(build(size, seed=seed).module), args)
        for offset, (build, size, args) in enumerate(
            (
                (build_gemmini_matmul, 32, (32,)),
                (build_gemmini_matmul, 64, (64,)),
                (build_gemmini_os_matmul, 64, (64,)),
                (build_opengemm_matmul, 64, ()),
            )
        )
    ]
    return generated, large, memories


def build_stream(
    seed: int, generated: list[PoolModule], large: list[PoolModule], count: int
) -> list[dict]:
    """``count`` requests; a repeat is the same dict object as its original."""
    rng = random.Random(f"{seed}:stream")
    order = list(range(len(generated)))
    rng.shuffle(order)
    cursor = 0
    seen: set[tuple] = set()
    distinct: list[dict] = []
    recent_modules: deque[PoolModule] = deque(maxlen=8)
    stream: list[dict] = []
    for position in range(count):
        if distinct and rng.random() < REPEAT_SHARE:
            stream.append(rng.choice(distinct[-RECENT:]))
            continue
        while True:
            roll = rng.random()
            if roll < LARGE_SHARE:
                module = rng.choice(large)
            elif roll < LARGE_SHARE + LOCAL_SHARE and recent_modules:
                module = rng.choice(recent_modules)
            else:
                module = generated[order[cursor % len(order)]]
                cursor += 1
            op = rng.choices(OPS, weights=WEIGHTS)[0]
            pipeline = rng.choice(PIPELINES_FOR[op])
            args = module.draw_args(rng) if op == "simulate" else None
            key = (op, module.index, pipeline, tuple(args or ()))
            if key not in seen:
                break
        seen.add(key)
        request = {
            "op": op,
            "module": module.text,
            "pipeline": pipeline,
            "tenant": f"tenant{position % 4}",
        }
        if args is not None:
            request["args"] = args
        distinct.append(request)
        recent_modules.append(module)
        stream.append(request)
    return stream


# -- references ----------------------------------------------------------------


def _simulate_reference(request: dict, modules: dict) -> dict:
    """What ``simulate`` must answer, from the tree interpreter."""
    from repro.interp import Interpreter
    from repro.ir import parse_module, verify_operation
    from repro.passes import pipeline_by_name
    from repro.sim import CoSimulator

    key = (request["module"], request["pipeline"])
    module = modules.get(key)
    if module is None:
        module = parse_module(request["module"], "<request>")
        verify_operation(module)
        if request["pipeline"]:
            pipeline_by_name(request["pipeline"]).run(module)
        modules[key] = module
    sim = CoSimulator(functional=False)
    results = Interpreter(module, sim).run("main", list(request["args"]))
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
        "launches": {name: d.launch_count for name, d in sim.devices.items()},
    }


def references(requests) -> dict[int, object]:
    """id(request) -> expected result (JSON-normalized), or an error string."""
    from repro.engine import TraceCache
    from repro.serve import CompileService

    service = CompileService(cache=TraceCache())
    modules: dict = {}
    out: dict[int, object] = {}
    for request in requests:
        if id(request) in out:
            continue
        if request["op"] == "simulate":
            result = _simulate_reference(request, modules)
        else:
            response = service.handle(dict(request))
            if not response["ok"]:
                out[id(request)] = f"reference failed: {response['error']}"
                continue
            result = response["result"]
        out[id(request)] = json.loads(json.dumps(result))
    return out


def check(stream, records, tally: Tally) -> None:
    expected = references(stream[: len(records)])
    for index, (_, response) in enumerate(records):
        request = stream[index]
        want = expected[id(request)]
        what = f"request {index} ({request['op']})"
        if isinstance(want, str):
            tally.record(False, f"{what}: {want}")
        elif not response.get("ok"):
            tally.record(False, f"{what}: {response.get('error')}")
        else:
            tally.record(response["result"] == want, f"{what}: result mismatch")


# -- the server process and the closed loop ------------------------------------


class Server:
    """One server subprocess, started and stopped by this benchmark."""

    def __init__(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match is None:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self):
        from repro.serve import NO_RETRY, ReproClient

        return ReproClient(self.host, self.port, retry=NO_RETRY)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> str:
        """Shut the server down; returns the rest of its standard output."""
        from repro.serve import ServeClientError

        try:
            with self.client() as client:
                client.shutdown()
        except (OSError, ServeClientError):
            pass  # already gone: reap it below
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out


def plain_server() -> Server:
    return Server([sys.executable, "-m", "repro", "serve", "--port", "0"])


def traced_server() -> Server:
    return Server([sys.executable, os.path.join(BENCH_DIR, "serve_child.py")])


def drive(
    server: Server,
    stream,
    limit: int,
    seconds: float | None = None,
    host: HostSpeed | None = None,
):
    """Send ``stream`` in order over CONNECTIONS closed-loop connections
    until ``limit`` requests or ``seconds`` have passed.

    With ``host``, the load stops every SEGMENT_S seconds for a host-speed
    probe, taken with no request in flight, and each segment's latencies
    and wall are scaled to the reference host speed by the probes on either
    side of it.  The host drifts within a run, so one scale for the whole
    window would leave most of the drift in.

    Returns ``(records, wall, peak_rss_mb)``: one ``(latency_s, response)``
    per request sent, in stream order; the seconds the requests took; and
    the server's peak RSS after RSS_AFTER requests (or at the end, if fewer
    were sent).
    """
    from repro.serve import ServeClientError

    lock = threading.Lock()
    cursor = [0]
    records: list = [None] * limit
    peak_rss: list[float] = []
    broken = threading.Event()
    end = math.inf if seconds is None else time.perf_counter() + seconds

    def worker(client, deadline: float) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= limit or time.perf_counter() >= deadline:
                    return
                cursor[0] += 1
                if index == RSS_AFTER:
                    peak_rss.append(server.peak_rss_mb())
            started = time.perf_counter()
            try:
                response = client.send_payload({"id": index, **stream[index]})
            except ServeClientError as error:
                response = {"ok": False, "error": str(error)}
            records[index] = (time.perf_counter() - started, response)
            if not response.get("ok") and "meta" not in response:
                broken.set()  # transport failure: this connection is gone
                return

    def probe() -> float:
        # the median of a few, so one probe preempted by a neighbour does
        # not rescale a whole segment
        return median([host.probe() for _ in range(PROBES_PER_BREAK)])

    wall = 0.0
    with contextlib.ExitStack() as stack:
        clients = [stack.enter_context(server.client()) for _ in range(CONNECTIONS)]
        before = probe() if host else 0.0
        while cursor[0] < limit and time.perf_counter() < end and not broken.is_set():
            first = cursor[0]
            started = time.perf_counter()
            deadline = min(end, started + SEGMENT_S) if host else end
            threads = [
                threading.Thread(target=worker, args=(client, deadline))
                for client in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            scale = 1.0
            if host:
                after = probe()
                scale = host.at_reference(1.0, before, after)
                before = after
            wall += elapsed * scale
            for index in range(first, cursor[0]):
                if records[index] is not None:
                    latency, response = records[index]
                    records[index] = (latency * scale, response)
    if not peak_rss:
        peak_rss.append(server.peak_rss_mb())
    sent = records[: cursor[0]]
    return [r if r is not None else (0.0, {"ok": False}) for r in sent], wall, peak_rss[0]


def warm_up(server: Server, seed: int) -> None:
    """First-touch imports and lazy tables on a fresh server, from programs
    outside the measured pool."""
    from repro.testing.generator import PROFILES, build_spec, generate_spec

    rng = random.Random(f"{seed}:warm-up")
    with server.client() as client:
        for backend in sorted(PROFILES):
            text = str(build_spec(generate_spec(rng, backend)).module)
            for op in OPS:
                fields = {"args": [1, 0]} if op == "simulate" else {}
                client.request(op, module=text, **fields)


def cold_start_s(host: HostSpeed) -> float:
    """Median time from spawning a server to its first ``ping`` answer, at
    the reference host speed."""

    def start() -> Server:
        server = plain_server()
        try:
            with server.client() as client:
                if not client.ping().get("ok"):
                    raise RuntimeError("ping failed")
        except BaseException:
            server.stop()
            raise
        return server

    samples = []
    for _ in range(SETUP_REPS):
        server, _, at_reference = host.timed(start)
        server.stop()
        samples.append(at_reference)
    return median(samples)


def _client_split(records) -> dict[str, float]:
    """Service, transport, hit and miss medians from untraced responses."""
    service, transport, hits, misses = [], [], [], []
    for latency, response in records:
        meta = response.get("meta")
        if not response.get("ok") or not meta:
            continue
        latency_ms = latency * 1e3
        service.append(meta["wall_ms"])
        transport.append(latency_ms - meta["wall_ms"])
        if meta.get("cached"):
            hits.append(latency_ms)
        elif not meta.get("coalesced"):
            misses.append(latency_ms)
    return {
        "serve.service_ms_p50": median(service),
        "serve.transport_ms_p50": median(transport),
        "serve.hit_ms_p50": median(hits),
        "serve.miss_ms_p50": median(misses),
    }


def _summary(latencies: list[float], wall: float) -> dict[str, float]:
    # The tail is read at p98, not p99: the server's full garbage
    # collections stall both connections for 50-450 ms (longer as its
    # analysis cache grows), which catches 0.6-0.9% of the requests of a
    # run, so p99 would flip between computed requests and stalls.
    return {
        "throughput_per_s": len(latencies) / wall,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p98_ms": percentile(latencies, 98) * 1e3,
    }


def run(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    tally = Tally()
    generated, large, memories = build_pool(seed)
    if not trace:
        host = HostSpeed()
        setup_s = cold_start_s(host)
        stream = build_stream(seed, generated, large, int(STREAM_PER_S * seconds))
        server = plain_server()
        try:
            warm_up(server, seed)
            records, wall, peak_rss = drive(
                server, stream, len(stream), seconds, HostSpeed()
            )
        finally:
            server.stop()
        check(stream, records, tally)
        return tally, {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            **_summary([latency for latency, _ in records], wall),
        }

    count = int(TRACED_REQUESTS_PER_S * seconds)
    stream = build_stream(seed, generated, large, count)
    server = plain_server()
    try:
        warm_up(server, seed)
        untraced, untraced_wall, _ = drive(server, stream, count)
        with server.client() as client:
            pings = []
            for _ in range(PINGS):
                started = time.perf_counter()
                client.ping()
                pings.append((time.perf_counter() - started) * 1e3)
            stats = client.stats()
    finally:
        server.stop()
    server = traced_server()
    try:
        warm_up(server, seed)
        traced, traced_wall, _ = drive(server, stream, count)
    finally:
        out = server.stop()
    check(stream, untraced, tally)
    check(stream, traced, tally)
    lines = [line for line in out.splitlines() if line.startswith(LAYERS_MARKER)]
    if not lines:
        raise RuntimeError("traced server printed no layer table")
    snapshot = json.loads(lines[-1][len(LAYERS_MARKER):])
    # One span stack per handler thread: the self times add up to the
    # connections' combined wall.
    result = layer_metrics(
        snapshot, CONNECTIONS * traced_wall, CONNECTIONS * untraced_wall
    )
    result.update(_client_split(untraced))
    result.update(
        {
            "serve.dedup_hit_rate": stats["dedup_hit_rate"],
            "serve.module_hits": stats["module_hits"],
            "serve.coalesced": stats["coalesced"],
            "serve.errors": stats["errors"],
            "floor.ping_ms": median(pings),
            "floor.cosim_empty_us": floor_cosim_empty_us(memories[:60], reps=5),
        }
    )
    return tally, result
