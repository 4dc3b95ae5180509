"""Asyncio NDJSON front-end for the placement service.

The daemon's one TCP server (``repro serve``; ``--stdio`` is the other
transport).  Every connection is multiplexed onto one event loop: tens
of thousands of *idle* NDJSON connections cost a handful of file
descriptors and buffers each, and only requests that are actually in
flight consume real work.

Division of labor, chosen so the event loop never blocks:

* **accepting**: a reader callback on the listening socket; each
  accepted socket gets its connection task in the same loop step.
* **reading**: ``asyncio`` stream per connection; one request line in,
  one response line out, ``request_id`` correlation.
* **parsing/validating**:
  :func:`~repro.service.protocol.decode_request_or_error` deserializes
  whole placement instances, which can be megabytes of JSON; it runs on
  a small thread pool (``parse_workers``), off the loop's hot path.
* **executing**: the backend's ``submit()`` is non-blocking (the
  broker's admission guarantee) and returns a
  :class:`~repro.service.broker.Ticket`; the ticket's done-callback is
  bridged onto the loop with ``call_soon_threadsafe``.  Blocking broker
  and worker internals are untouched.

The ``backend`` is anything with ``submit(request) -> Ticket``: a
:class:`~repro.service.daemon.PlacementService` (one shard) or a
:class:`~repro.service.cluster.ClusterRouter` (many).

Shutdown is loop-native -- no poll interval, no connect-to-self nudge.
``shutdown()`` posts a stop onto the loop, which stops accepting,
closes the listener, and reads no further request on any connection.
With ``drain=True`` every request already read is answered before its
connection closes; a connection with nothing read closes at once, and
:class:`~repro.service.client.ServiceClient` retries on that EOF.  No
accepted socket outlives the loop -- whatever a connection task did not
close is closed as the loop exits, so a client never waits out its own
timeout.  Under zero traffic shutdown completes in milliseconds.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from .protocol import (
    Response,
    ResponseStatus,
    decode_request_or_error,
    encode_response,
)

__all__ = ["AsyncFrontend"]

#: Per-line byte cap; a line past it is answered BAD_REQUEST instead of
#: buffering without bound.  Sized for ~100k-rule instances.
_DEFAULT_LINE_LIMIT = 256 * 1024 * 1024

#: Seconds to pause accepting after an accept error such as running out
#: of file descriptors (asyncio's own servers pause as long).
_ACCEPT_RETRY_DELAY = 1.0


class AsyncFrontend:
    """One event loop serving NDJSON for a service or cluster router."""

    def __init__(
        self,
        backend: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        parse_workers: int = 2,
        max_line_bytes: int = _DEFAULT_LINE_LIMIT,
        backlog: int = 512,
    ) -> None:
        self.backend = backend
        self.host = host
        #: The requested port until :meth:`start` binds, then the bound
        #: one (port 0 asks for a free port).
        self.port = port
        self.backlog = backlog
        self.max_line_bytes = max_line_bytes
        self._parse_pool = ThreadPoolExecutor(
            max_workers=parse_workers,
            thread_name_prefix="repro-parse")
        # Pre-encoded so the oversize answer costs the loop nothing.
        self._oversize_answer = encode_response(Response(
            status=ResponseStatus.BAD_REQUEST,
            error=f"request line exceeds {max_line_bytes} bytes"))
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._conn_tasks: set = set()
        #: Every accepted socket, until it is garbage.  Whatever is still
        #: open when the loop exits was cut short before its connection
        #: task (or its transport's close callback) ran; it is closed then.
        self._sockets: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()
        #: Connection tasks with a request between read and answer.
        self._serving: set = set()
        #: Set once shutdown begins: no connection reads another line.
        self._stopping = False
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        self._address: Optional[tuple] = None
        # Telemetry (through the backend's registry when it has one).
        metrics = getattr(backend, "metrics", None)
        self._g_connections = (metrics.gauge(
            "frontend_connections", "open NDJSON connections")
            if metrics is not None else None)
        self._c_requests = (metrics.counter(
            "frontend_requests_total", "request lines served")
            if metrics is not None else None)
        self._c_bad_lines = (metrics.counter(
            "frontend_bad_lines_total",
            "lines answered BAD_REQUEST (malformed or oversized)")
            if metrics is not None else None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple:
        if self._address is None:
            raise RuntimeError("frontend not started")
        return self._address

    def start(self) -> None:
        """Bind, then serve on a background event-loop thread.  A bind
        failure raises here, before any thread starts."""
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server(
            (self.host, self.port), family=family, backlog=self.backlog)
        self._listener.setblocking(False)
        self._address = self._listener.getsockname()[:2]
        self.port = self._address[1]
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-async-frontend", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("async frontend failed to start")

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            try:
                # Cancel any straggler tasks so the loop closes clean.
                for task in asyncio.all_tasks(loop):
                    task.cancel()
                loop.run_until_complete(
                    loop.shutdown_asyncgens())
            except Exception:  # pragma: no cover - teardown best effort
                pass
            loop.close()
            self._listener.close()
            for conn in list(self._sockets):
                conn.close()
            self._stopped.set()

    async def _serve(self) -> None:
        loop = asyncio.get_running_loop()
        self._stop_accepting = asyncio.Event()
        loop.add_reader(self._listener, self._accept)
        self._started.set()
        await self._stop_accepting.wait()
        # Stop accepting: every socket accepted so far already has its
        # connection task.  From here no connection reads another line,
        # so the requests in flight are all there will be: a drain lets
        # them be answered, every other connection closes at once.
        loop.remove_reader(self._listener)
        self._listener.close()
        self._stopping = True
        for task in self._conn_tasks:
            if not (self._drain_requested and task in self._serving):
                task.cancel()
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks,
                               timeout=self._drain_timeout)
        for task in self._conn_tasks:
            task.cancel()  # past the drain timeout
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)

    def shutdown(self, drain: bool = True,
                 drain_timeout: Optional[float] = 30.0) -> None:
        """Stop serving; graceful by default.

        ``drain=True``: close the listener and read no further
        request; every request already read is answered before its
        connection closes, and idle connections close at once (all of
        them, answered or not, once ``drain_timeout`` passes).
        ``drain=False`` closes every connection at once.  The *backend*
        is not closed here -- the
        caller owns its lifetime (and typically drains its broker next).
        Loop-native: completes promptly under zero traffic.  Safe from
        any thread; idempotent.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        self._drain_requested = drain
        self._drain_timeout = (drain_timeout if drain_timeout is not None
                               else 30.0)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._stop_accepting.set)
            except RuntimeError:  # pragma: no cover - loop just closed
                pass
        self._stopped.wait(timeout=self._drain_timeout + 10.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._parse_pool.shutdown(wait=False)

    def __enter__(self) -> "AsyncFrontend":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept(self) -> None:
        """Listener reader callback: accept what is queued; each socket
        gets its connection task in this same step."""
        loop = self._loop
        for _ in range(self.backlog):
            try:
                conn, _peer = self._listener.accept()
            except (BlockingIOError, InterruptedError,
                    ConnectionAbortedError):
                return
            except OSError:  # pragma: no cover - e.g. out of descriptors
                # Pause accepting rather than spin on a readable
                # listener (asyncio's own servers pause as long).
                loop.remove_reader(self._listener)
                loop.call_later(_ACCEPT_RETRY_DELAY, self._resume_accepting)
                return
            self._sockets.add(conn)
            self._conn_tasks.add(loop.create_task(self._connection(conn)))

    def _resume_accepting(self) -> None:  # pragma: no cover - see _accept
        if not self._stop_accepting.is_set():
            self._loop.add_reader(self._listener, self._accept)

    async def _connection(self, conn: socket.socket) -> None:
        """Serve one accepted socket until EOF, an oversized line, or
        shutdown; always closes it."""
        writer: Optional[asyncio.StreamWriter] = None
        if self._g_connections is not None:
            self._g_connections.inc()
        try:
            reader, writer = await asyncio.open_connection(
                sock=conn, limit=self.max_line_bytes)
            while not self._stopping:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # A line past the limit: answer once, then drop the
                    # connection -- the stream offset is unrecoverable.
                    await self._write_line(writer, self._oversize_answer)
                    if self._c_bad_lines is not None:
                        self._c_bad_lines.inc()
                    return
                if not raw:
                    return  # EOF: client hung up.
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                answer = await self._serve_line(line)
                await self._write_line(writer, answer)
        except (ConnectionResetError, BrokenPipeError,
                TimeoutError, OSError):  # pragma: no cover - peer died
            pass
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            if self._g_connections is not None:
                self._g_connections.dec()
            if writer is not None:
                writer.close()
            else:
                conn.close()

    async def _serve_line(self, line: str) -> str:
        """One request line -> one response line, never raising."""
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        self._serving.add(task)
        if self._c_requests is not None:
            self._c_requests.inc()
        try:
            try:
                # Parse + validate off the loop: instance payloads can
                # be large, and json decoding holds the GIL anyway --
                # but on the pool it never stalls connection I/O.  The
                # malformed-line answer is encoded there too.
                request, bad_answer = await loop.run_in_executor(
                    self._parse_pool, decode_request_or_error, line)
            except RuntimeError as exc:  # pragma: no cover - pool closed
                # Shutdown race: one small constant encode on the loop.
                # repro: allow[REP-ASYNC] pool is closed; tiny fixed-size payload on the shutdown path
                return encode_response(Response(
                    status=ResponseStatus.ERROR,
                    error=f"frontend shutting down: {exc}"))
            if bad_answer is not None:
                if self._c_bad_lines is not None:
                    self._c_bad_lines.inc()
                return bad_answer
            response = await self._submit(request)
            try:
                # Responses carry whole placements; encode off the loop.
                return await loop.run_in_executor(
                    self._parse_pool, encode_response, response)
            except RuntimeError:  # pragma: no cover - pool closed
                # repro: allow[REP-ASYNC] pool is closed; last in-flight answer on the shutdown path
                return encode_response(response)
        finally:
            self._serving.discard(task)

    async def _submit(self, request) -> Response:
        """Bridge the broker's threading Ticket into the event loop."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def resolved(response: Response) -> None:
            def _set() -> None:
                if not future.done():
                    future.set_result(response)
            try:
                loop.call_soon_threadsafe(_set)
            except RuntimeError:  # pragma: no cover - loop closed
                pass

        try:
            ticket = self.backend.submit(request)
        except Exception as exc:  # pragma: no cover - defensive net
            return Response(
                status=ResponseStatus.ERROR,
                kind=getattr(request, "kind", ""),
                request_id=getattr(request, "request_id", None),
                error=f"submit failed: {type(exc).__name__}: {exc}")
        ticket.add_done_callback(resolved)
        return await future

    @staticmethod
    async def _write_line(writer: asyncio.StreamWriter, line: str) -> None:
        writer.write(line.encode("utf-8") + b"\n")
        await writer.drain()
