"""A resilient NDJSON client for the placement daemon.

The raw protocol is one JSON line out, one JSON line back; anyone can
speak it with a socket.  What a *load generator or controller that must
survive daemon restarts* needs on top is exactly the classic
client-resilience triad, and the journal is what makes it sound:

* **per-request timeouts** -- a hung daemon must not hang the caller;
* **reconnect** -- a refused or dropped connection is retried with
  capped exponential backoff against the same address, because a
  supervised daemon restarting is an expected event, not an error;
* **idempotent retries** -- every state-changing request carries a
  generated ``request_id``.  If the connection dies *after* the daemon
  committed but *before* the ack arrived, the retry hits the daemon's
  journal-backed dedup table and returns the original result
  (``served="replay"``) instead of double-applying.  Reads (ping,
  health, metrics) are idempotent by nature and simply re-run.

``ServiceClient`` is deliberately synchronous and single-connection:
one in-flight request per client, matching the daemon's one-line-in /
one-line-out framing.  Use one client per thread.
"""

from __future__ import annotations

import socket
import time
import uuid
from typing import Any, Dict, Optional

from .protocol import (
    HealthRequest,
    PingRequest,
    ReadyRequest,
    Request,
    Response,
    ResponseStatus,
    decode_response,
    encode_request,
)

__all__ = ["ServiceClient", "ServiceUnavailable"]


class ServiceUnavailable(ConnectionError):
    """The daemon stayed unreachable/unresponsive through every retry."""


class ServiceClient:
    """Timeouts, reconnect-with-backoff, idempotent retries.

    ``retries`` counts *re*-attempts after the first try.  Backoff
    between attempts is ``backoff_base * 2^n`` capped at
    ``backoff_cap`` -- long enough for a supervised restart, short
    enough for tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        retries: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sock: Optional[socket.socket] = None
        self._reader = None
        #: Telemetry the chaos harness and loadgen assert on.
        self.reconnects = 0
        self.retried_requests = 0
        #: Requests served over an already-established connection
        #: (socket reuse instead of a fresh connect) -- the client-side
        #: connection pool's hit counter.
        self.pool_hits = 0
        self._ever_connected = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8")
        if self._ever_connected:
            self.reconnects += 1
        self._ever_connected = True

    def telemetry(self) -> Dict[str, int]:
        """Connection-reuse and resilience counters for reports."""
        return {
            "reconnects": self.reconnects,
            "retried_requests": self.retried_requests,
            "pool_hits": self.pool_hits,
        }

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:  # pragma: no cover - already gone
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already gone
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Core call path
    # ------------------------------------------------------------------

    def call(self, request: Request,
             timeout: Optional[float] = None) -> Response:
        """Send one request, ride out crashes/restarts, return the
        response.

        Commit-kind requests (delta, solve-with-deploy, session,
        invalidate) get a ``request_id`` stamped before the first
        attempt, so every retry of the same call is recognizably the
        same operation to the daemon's dedup table.
        """
        if getattr(request, "request_id", None) is None:
            request.request_id = f"cli-{uuid.uuid4().hex}"
        line = encode_request(request)
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retried_requests += 1
                time.sleep(min(self.backoff_base * (2 ** (attempt - 1)),
                               self.backoff_cap))
            try:
                response = self._roundtrip(line, timeout)
            except (ConnectionError, OSError, TimeoutError) as exc:
                last_error = exc
                self.close()
                continue
            if self._is_restarting(response) and attempt < self.retries:
                # The daemon told us it is going away (drain/shutdown).
                # That is a fail-closed refusal, not an apply: drop the
                # connection and retry toward its replacement, where
                # the request_id dedup keeps the retry idempotent.
                last_error = ConnectionError(response.error or "draining")
                self.close()
                continue
            return response
        raise ServiceUnavailable(
            f"daemon at {self.host}:{self.port} unreachable after "
            f"{self.retries + 1} attempts: {last_error}"
        )

    @staticmethod
    def _is_restarting(response: Response) -> bool:
        """A refusal that means 'the daemon is going away', worth
        retrying against its supervised replacement."""
        error = (response.error or "").lower()
        return (response.status in (ResponseStatus.ERROR,
                                    ResponseStatus.OVERLOADED)
                and ("shutting down" in error or "draining" in error))

    def _roundtrip(self, line: str, timeout: Optional[float]) -> Response:
        reused = self._sock is not None
        self.connect()
        if reused:
            self.pool_hits += 1
        assert self._sock is not None
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
            answer = self._reader.readline()
        finally:
            if timeout is not None:
                self._sock.settimeout(self.timeout)
        if not answer:
            raise ConnectionError("daemon closed the connection")
        return decode_response(answer.strip())

    # ------------------------------------------------------------------
    # Convenience verbs
    # ------------------------------------------------------------------

    def ping(self, timeout: Optional[float] = None) -> Response:
        return self.call(PingRequest(), timeout=timeout)

    def health(self, deep: bool = False,
               timeout: Optional[float] = None) -> Response:
        return self.call(HealthRequest(deep=deep), timeout=timeout)

    def ready(self, timeout: Optional[float] = None) -> Response:
        return self.call(ReadyRequest(), timeout=timeout)

    def wait_ready(self, timeout: float = 30.0,
                   interval: float = 0.1) -> Response:
        """Block until the daemon answers ``ready: true`` (reconnecting
        as needed) -- the restart-side handshake of reconnect-with-
        replay."""
        deadline = time.monotonic() + timeout
        last: Optional[Response] = None
        while time.monotonic() < deadline:
            try:
                last = self.call(ReadyRequest(),
                                 timeout=min(2.0, timeout))
            except ServiceUnavailable:
                last = None
            else:
                if last.result and last.result.get("ready"):
                    return last
            time.sleep(interval)
        raise ServiceUnavailable(
            f"daemon at {self.host}:{self.port} not ready within "
            f"{timeout:.1f}s (last: "
            f"{last.result if last is not None else 'unreachable'})"
        )

    def committed(self, response: Response) -> bool:
        """Did this response ack a durable commit (fresh or replayed)?"""
        return response.status == ResponseStatus.OK

