"""A minimal blocking client for the JSON-lines protocol.

Used by the tests, the CI smoke script (``tools/serve_smoke.py``, whose
timed phase holds the dedup speedup floor) and the chaos campaign; also a
reference implementation for external clients (the whole protocol fits in
:meth:`ReproClient.request`).

Resilience: transport failures (refused connect, reset connection, a
half-written response line, unparsable bytes) are retried under a
deterministic :class:`RetryPolicy` — seeded exponential backoff with
jitter, bounded attempts.  Retries are *idempotent* against the server:
the request ``id`` is resent unchanged and the service's outcome cache
returns the already-computed result instead of re-paying compilation, so
a retry after a mid-flight failure costs one cache hit, not one compile.
Typed error *responses* (``ok: false``) are never retried here — they are
answers, and the caller decides what to do with them.
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any

from .protocol import encode


class ServeClientError(RuntimeError):
    """Transport-level failure that survived the whole retry budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded retry with seeded exponential backoff.

    ``delay(attempt)`` is a pure function of ``(seed, attempt)`` via the
    same private-draw-stream idiom as :class:`repro.faults.model.DrawStreams`
    (``f"{seed}:retry:{attempt}"``), so a chaos campaign's retry timing is
    reproducible from its seed.
    """

    #: retries after the first attempt (0 disables retrying entirely)
    max_retries: int = 3
    #: backoff before retry k is ``base * factor**k`` seconds, jittered
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    #: multiply each delay by a deterministic draw in [0.5, 1.0]
    jitter: bool = True
    seed: int = 0

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based)."""
        delay = self.backoff_base * (self.backoff_factor ** attempt)
        if self.jitter:
            rng = random.Random(f"{self.seed}:retry:{attempt}")
            delay *= 0.5 + 0.5 * rng.random()
        return delay


#: retrying disabled — the pre-resilience single-shot behavior
NO_RETRY = RetryPolicy(max_retries=0)


class ReproClient:
    """One connection to a repro server; safe for one thread at a time."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        retry: RetryPolicy = RetryPolicy(),
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        #: transport failures recovered by reconnect+resend
        self.retries = 0
        self._sock: socket.socket | None = None
        self._reader = None
        self._next_id = 0
        self._connect_with_retry()

    # -- connection management ---------------------------------------------

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        # One-line request/response turns: Nagle + delayed ACK would add
        # ~40ms of latency to every request.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def _connect_with_retry(self) -> None:
        for attempt in range(self.retry.max_retries + 1):
            try:
                self._connect()
                return
            except OSError as error:
                self._teardown()
                if attempt >= self.retry.max_retries:
                    raise ServeClientError(
                        f"connect to {self.host}:{self.port} failed after "
                        f"{attempt + 1} attempts: {error}"
                    ) from error
                self.retries += 1
                time.sleep(self.retry.delay(attempt))

    def _teardown(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- the protocol ------------------------------------------------------

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request, block for its response, return it decoded.

        Transport failures reconnect and resend the *same* payload (same
        ``id``) up to the retry budget; the outcome cache makes that
        idempotent server-side.
        """
        self._next_id += 1
        return self.send_payload({"id": self._next_id, "op": op, **fields})

    def next_payload(self, op: str, **fields: Any) -> dict[str, Any]:
        """A fresh request payload (with the next ``id``), not yet sent.

        The chaos campaign uses this to garble/split/abandon a payload's
        first transmission and then push the *same* payload through
        :meth:`send_payload`, proving retries are idempotent.
        """
        self._next_id += 1
        return {"id": self._next_id, "op": op, **fields}

    def send_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        """The retry loop around one exact payload; see :meth:`request`."""
        last_error: Exception | None = None
        for attempt in range(self.retry.max_retries + 1):
            if attempt:
                self.retries += 1
                time.sleep(self.retry.delay(attempt - 1))
            try:
                if self._sock is None:
                    self._connect()
                response = self._exchange(payload)
            except (OSError, ValueError) as error:
                last_error = error
                self._teardown()
                continue
            return response
        raise ServeClientError(
            f"request failed after {self.retry.max_retries + 1} attempts: "
            f"{last_error}"
        ) from last_error

    def _exchange(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One send/receive turn; raises OSError/ValueError on failure."""
        assert self._sock is not None and self._reader is not None
        self._sock.sendall(encode(payload))
        line = self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return json.loads(line)  # ValueError on garbled bytes

    # -- op shorthands -----------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def stats(self) -> dict[str, Any]:
        response = self.request("stats")
        return response.get("result", {})

    def compile(
        self, module: str, pipeline: str = "full", tenant: str = "anonymous"
    ) -> dict[str, Any]:
        return self.request(
            "compile", module=module, pipeline=pipeline, tenant=tenant
        )

    def simulate(
        self,
        module: str,
        pipeline: str = "",
        args: list[int] | None = None,
        tenant: str = "anonymous",
    ) -> dict[str, Any]:
        return self.request(
            "simulate",
            module=module,
            pipeline=pipeline,
            args=args or [],
            tenant=tenant,
        )

    def lint(self, module: str, tenant: str = "anonymous") -> dict[str, Any]:
        return self.request("lint", module=module, tenant=tenant)

    def cost(self, module: str, tenant: str = "anonymous") -> dict[str, Any]:
        return self.request("cost", module=module, tenant=tenant)

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
