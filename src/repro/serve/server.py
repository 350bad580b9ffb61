"""The long-lived server: a threaded JSON-lines TCP front to the service.

One :class:`ReproServer` owns one :class:`~repro.serve.service.CompileService`
and a :class:`socketserver.ThreadingTCPServer`; every connection gets a
handler thread that reads request lines, hands them to the service (where
all the sharing happens — see :mod:`.service`), and writes response lines.
Connections are cheap and stateless: clients may keep one open for many
requests or reconnect per request; tenant identity travels in the request,
not the connection.

Two hardening rules live at this layer (see ``docs/ROBUSTNESS.md``):

* **Bounded frames** — a request line longer than ``max_frame_bytes`` is
  answered with a typed ``protocol`` error and drained (the connection
  survives); ``readline()`` never buffers an unbounded hostile line.
* **Dying handler threads stay quiet** — an injected
  :class:`~repro.serve.service.ChaosThreadDeath` ends the handler thread
  (the connection drops with no response, exactly like a real crash); the
  single-flight rescue in the service has already woken any coalesced
  waiters by the time it propagates here.

Shutdown is cooperative: a ``shutdown`` request gets its response written
and flushed, then the accept loop stops; in-flight requests on other
connections finish normally, and :meth:`ReproServer.stop` closes the
service so every parked single-flight waiter wakes with a typed
``shutdown`` error.  ``python -m repro serve`` runs this in the foreground
(SIGINT also shuts down cleanly); tests and ``tools/serve_smoke.py`` use
:meth:`ReproServer.start` / :meth:`ReproServer.stop` around a background
thread.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from .protocol import ProtocolError, decode_request, encode, error_response
from .service import ChaosThreadDeath, CompileService

#: default request-frame bound; far above any real module, far below
#: what an unbounded ``readline()`` would happily buffer
DEFAULT_MAX_FRAME_BYTES = 1024 * 1024


class _Handler(socketserver.StreamRequestHandler):
    # Request/response round-trips on one connection: without this, Nagle
    # plus delayed ACK costs ~40ms per request on loopback.
    disable_nagle_algorithm = True

    def _read_frame(self) -> bytes | None:
        """One bounded request line; None when oversized (already drained).

        ``readline(limit)`` returns at most ``limit`` bytes; a result of
        exactly ``limit + 1`` bytes without a trailing newline means the
        frame overflowed the bound — the rest of the line is read off the
        socket in bounded chunks and discarded so the connection stays
        usable for the next (well-formed) request.
        """
        server: "_TCPServer" = self.server  # type: ignore[assignment]
        limit = server.max_frame_bytes
        line = self.rfile.readline(limit + 1)
        if len(line) <= limit or line.endswith(b"\n"):
            return line
        # Drain the remainder of the oversized line.
        while True:
            chunk = self.rfile.readline(limit + 1)
            if not chunk or chunk.endswith(b"\n"):
                return None

    def handle(self) -> None:
        server: "_TCPServer" = self.server  # type: ignore[assignment]
        while True:
            try:
                line = self._read_frame()
            except OSError:
                return
            if line is None:
                response = error_response(
                    {},
                    "protocol",
                    f"request frame exceeds {server.max_frame_bytes} bytes",
                )
                try:
                    self.wfile.write(encode(response))
                    self.wfile.flush()
                except OSError:
                    return
                continue
            if not line:
                return
            if not line.strip():
                continue
            shutdown = False
            try:
                request = decode_request(line)
            except ProtocolError as error:
                response = error_response({}, "protocol", str(error))
            else:
                try:
                    response = server.service.handle(request)
                except ChaosThreadDeath:
                    # Injected thread death: the service already rescued
                    # any coalesced waiters; this handler thread dies
                    # without a response, dropping the connection exactly
                    # like a real crash would.
                    return
                shutdown = request["op"] == "shutdown" and response.get("ok")
            try:
                self.wfile.write(encode(response))
                self.wfile.flush()
            except OSError:
                return
            if shutdown:
                server.begin_shutdown()
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # The default backlog (5) drops SYNs when a client fleet connects at
    # once; the overflow retries after a full second of retransmit delay.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: CompileService,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        super().__init__(address, _Handler)
        self.service = service
        self.max_frame_bytes = max_frame_bytes
        self._shutdown_started = False
        self._shutdown_lock = threading.Lock()

    def begin_shutdown(self) -> None:
        """Stop the accept loop exactly once, from any handler thread.

        ``shutdown()`` blocks until ``serve_forever`` returns, so it must
        run off the handler thread (which the accept loop may be joining).
        """
        with self._shutdown_lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        threading.Thread(target=self.shutdown, daemon=True).start()


class ReproServer:
    """One service + one listening socket, embeddable or foreground."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: CompileService | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.service = service if service is not None else CompileService()
        self._tcp = _TCPServer((host, port), self.service, max_frame_bytes)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound — port 0 resolves at construction."""
        return self._tcp.server_address[:2]

    def start(self) -> "ReproServer":
        """Serve on a background thread (tests, the serve smoke script)."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, wake every parked waiter, close; idempotent.

        Order matters: the accept loop stops first (no new work), then the
        service closes — failing in-flight coalesced waiters fast with
        typed ``shutdown`` errors — then the listening socket is released.
        """
        self._tcp.begin_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()
        self._tcp.server_close()

    def serve_forever(self) -> None:
        """Foreground mode for the CLI; returns after a shutdown request."""
        host, port = self.address
        print(f"repro serve: listening on {host}:{port}", flush=True)
        try:
            self._tcp.serve_forever(poll_interval=0.05)
        except KeyboardInterrupt:
            pass
        finally:
            stats = self.service.stats()
            self.service.close()
            self._tcp.server_close()
            print(
                f"repro serve: shut down after {stats['requests']} request(s), "
                f"dedup hit rate {stats['dedup_hit_rate']:.1%}",
                flush=True,
            )

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def probe(host: str, port: int, timeout: float = 1.0) -> bool:
    """True when something accepts connections at (host, port)."""
    try:
        with socket.create_connection((host, port), timeout=timeout):
            return True
    except OSError:
        return False
