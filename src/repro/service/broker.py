"""Admission control, queueing, and dispatch for the placement daemon.

The broker sits between transports (socket/stdio handlers, the load
generator, in-process callers) and the :class:`~repro.service.workers.
WorkerPool`, and owns the serving policy:

* **Admission** -- a bounded priority queue.  When the queue is full
  the request is answered ``OVERLOADED`` *immediately*: the daemon
  sheds load instead of buffering unboundedly or blocking the caller.
  ``submit`` never blocks and never deadlocks.
* **Priority** -- delta and verify requests (sub-second by design,
  the paper's Section IV-E latency class) preempt queued full solves;
  within a class, FIFO.
* **Coalescing** -- identical in-flight solve digests share one solve:
  the second submitter attaches to the first request's flight and both
  receive the same answer (``served="coalesced"`` on the joiners).
  Only a solve without a deadline leads a flight others join: a time
  limit may cut its answer short.
* **Caching** -- proven answers (optimal or infeasible) land in the
  content-addressed :class:`~repro.service.cache.ResultCache`; a hit is
  answered at admission time without queueing (``served="cache"``).
  An answer cut short by a time limit is served but never cached.
* **Deadlines** -- a request that is still queued when its deadline
  passes is answered ``DEADLINE_EXCEEDED``; the remaining budget of a
  dispatched request bounds both the solver and the worker process.
* **Deployments** -- named live :class:`~repro.core.incremental.
  IncrementalDeployer` states.  A solve with ``deploy_as`` registers
  one and, once the deploy is acked, forks its own persistent
  :class:`~repro.service.workers.SessionWorker`.  Every install,
  reroute and modify previews in that worker and commits to the live
  state only on success, serialized per deployment; a remove is pure
  bookkeeping.  The :class:`~repro.service.workers.WorkerPool` runs
  only solves and verifies.

Worker failures map onto response statuses: a task exception is
``ERROR``, a hard worker death is ``WORKER_CRASHED`` -- both scoped to
the one request, the daemon keeps serving.

Durability (PR 7): when a :class:`~repro.service.journal.Journal` is
attached, every state-changing operation -- deployment registration,
delta commits, removals -- is journaled *write-ahead*: the record is
durable before the in-memory state mutates and before the client sees
``ok``.  Committed ``request_id``s land in a
bounded dedup table so a client retry after a crash/reconnect gets the
original answer (``served="replay"``) instead of a double-apply.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from .. import io as repro_io
from ..core.incremental import IncrementalDeployer
from ..core.instance import RuleKey
from ..milp.model import SolveStatus
from .cache import ResultCache
from .metrics import MetricsRegistry
from .protocol import (
    DeltaRequest,
    Response,
    ResponseStatus,
    SessionRequest,
    SolveRequest,
    VerifyRequest,
)
from .workers import (
    SessionWorker,
    WorkerCrash,
    WorkerError,
    WorkerPool,
    commit_delta,
    solve_task,
    verify_task,
)

__all__ = ["Broker", "Ticket"]

#: Seconds of grace the worker gets past the request deadline before it
#: is terminated -- enough to post a TIME_LIMIT incumbent, mirroring
#: the portfolio race's grace window.
_WORKER_GRACE = 0.5

#: The ways a worker call ends without a payload (see repro.forkpipe).
_WORKER_FAILURES = (WorkerCrash, TimeoutError, WorkerError)

#: Committed request_ids remembered for idempotent retries.  Bounds the
#: dedup table (and its journal-snapshot footprint); a client that
#: retries more than this many commits late is indistinguishable from a
#: new request, which is the standard at-least-once trade-off.
_APPLIED_CAP = 4096


class Ticket:
    """A future for one submitted request.

    Consumed two ways: blocking (``result()``, the thread-per-request
    transports) and callback (``add_done_callback``, the asyncio
    front-end, which must never block its event loop on a
    ``threading.Event``).
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: Optional[Response] = None
        self._callbacks: List[Callable[[Response], None]] = []
        self._cb_lock = threading.Lock()

    def resolve(self, response: Response) -> None:
        with self._cb_lock:
            self._response = response
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(response)

    def add_done_callback(self,
                          callback: Callable[[Response], None]) -> None:
        """Run ``callback(response)`` on resolution (immediately if the
        ticket is already resolved).  Callbacks fire on the resolving
        thread -- keep them cheap and thread-safe (the async front-end
        uses ``loop.call_soon_threadsafe``)."""
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self._response)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Response:
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        return self._response


class _Flight:
    """One queued/solving request plus everyone coalesced onto it."""

    def __init__(self, request, ticket: Ticket, admitted_at: float,
                 cache_key: Optional[str]) -> None:
        self.request = request
        self.tickets: List[Ticket] = [ticket]
        self.admitted_at = admitted_at
        self.cache_key = cache_key

    def resolve(self, response: Response) -> None:
        for index, ticket in enumerate(self.tickets):
            if index == 0:
                ticket.resolve(response)
            else:
                ticket.resolve(dataclasses.replace(response,
                                                   served="coalesced"))


class _Deployment:
    """A named live deployer, its serialization lock and its worker.

    ``session`` is the :class:`SessionWorker` that previews this
    deployment's deltas; :meth:`Broker._ensure_worker` forks it.
    """

    def __init__(self, deployer: IncrementalDeployer) -> None:
        self.deployer = deployer
        self.lock = threading.Lock()
        self.session: Optional[SessionWorker] = None
        #: Session workers forked for this deployment so far.
        self.forks: int = 0

    def drop_session(self) -> None:
        if self.session is not None:
            try:
                self.session.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            self.session = None


class Broker:
    """The serving core: admission, queueing, dispatch, deployments."""

    def __init__(
        self,
        pool: WorkerPool,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_queue: int = 64,
        dispatchers: int = 2,
        clock: Callable[[], float] = time.monotonic,
        journal=None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if dispatchers < 1:
            raise ValueError("dispatchers must be >= 1")
        self.pool = pool
        self.cache = cache if cache is not None else ResultCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_queue = max_queue
        self.clock = clock
        #: Optional :class:`~repro.service.journal.Journal`.  When set,
        #: state changes are write-ahead journaled; without it the
        #: broker behaves exactly as before (volatile state).
        self.journal = journal

        self._heap: List[Tuple[int, int, _Flight]] = []
        self._seq = itertools.count()
        self._inflight: Dict[str, _Flight] = {}
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._closed = False
        self._draining = False
        self._busy_count = 0

        self._deployments: Dict[str, _Deployment] = {}
        #: request_id -> committed result summary, for idempotent
        #: retries.  Rebuilt from the journal at recovery.
        self._applied: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

        # Instruments (created eagerly so exports are stable).
        m = self.metrics
        self._c_requests = {
            "solve": m.counter("requests_solve_total",
                               "full solve requests admitted or answered"),
            "delta": m.counter("requests_delta_total",
                               "incremental delta requests"),
            "verify": m.counter("requests_verify_total",
                                "verification requests"),
        }
        self._c_shed = m.counter("shed_total",
                                 "requests answered OVERLOADED at admission")
        self._c_coalesced = m.counter("coalesced_total",
                                      "solves joined onto an in-flight digest")
        self._c_solves = m.counter("solves_started_total",
                                   "solver executions actually started")
        self._c_crashes = m.counter("worker_crashes_total",
                                    "workers that died without answering")
        self._c_expired = m.counter("deadline_expired_total",
                                    "requests expired while queued")
        self._c_sessions = m.counter("sessions_attached_total",
                                     "session workers forked")
        self._c_session_deltas = m.counter(
            "session_deltas_total",
            "deltas served through a session worker")
        self._c_session_rebuilds = m.counter(
            "session_rebuilds_total",
            "session workers discarded after a crash, hang, or desync")
        self._c_restarts = m.counter(
            "worker_restarts_total",
            "session workers forked to replace an earlier one")
        self._c_replays = m.counter(
            "request_replays_total",
            "retried request_ids answered from the dedup table")
        self._c_by_status: Dict[str, Any] = {}
        for status in (ResponseStatus.OK, ResponseStatus.INFEASIBLE,
                       ResponseStatus.OVERLOADED,
                       ResponseStatus.DEADLINE_EXCEEDED,
                       ResponseStatus.WORKER_CRASHED,
                       ResponseStatus.BAD_REQUEST, ResponseStatus.ERROR):
            self._c_by_status[status] = m.counter(
                f"responses_{status}_total", f"responses with status {status}"
            )
        self._g_queue = m.gauge("queue_depth", "requests waiting for dispatch")
        self._g_busy = m.gauge("busy_workers", "requests currently executing")
        self._h_latency = {
            "solve": m.histogram("solve_latency_seconds",
                                 "admission-to-answer latency of solves"),
            "delta": m.histogram("delta_latency_seconds",
                                 "admission-to-answer latency of deltas"),
            "verify": m.histogram("verify_latency_seconds",
                                  "admission-to-answer latency of verifies"),
        }
        self._h_queue_wait = m.histogram("queue_wait_seconds",
                                         "time spent queued before dispatch")

        self._threads = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"repro-dispatch-{i}", daemon=True)
            for i in range(dispatchers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission (transport threads)
    # ------------------------------------------------------------------

    def submit(self, request) -> Ticket:
        """Admit one request; always returns immediately.

        The ticket may already be resolved (cache hit, shed, closed).
        """
        ticket = Ticket()
        now = self.clock()
        kind = request.kind
        self._c_requests[kind].inc()

        cache_key: Optional[str] = None
        if isinstance(request, SolveRequest):
            cache_key = request.cache_key()
            with self._lock:
                refused = self._closed or self._draining
            # A dead/draining broker must not keep answering from its
            # cache: upstream routers treat any answer as "shard is
            # alive", so fall through to the loud refusal below.
            cached = None if refused else self.cache.get(cache_key)
            if cached is not None and request.deploy_as is None:
                response = Response(
                    status=cached["status"], kind=kind,
                    request_id=request.request_id,
                    result=cached["result"], served="cache",
                    cache_key=cache_key, seconds=self.clock() - now,
                )
                self._finish(ticket, None, response, kind, now)
                return ticket

        with self._lock:
            if self._closed:
                response = Response(
                    status=ResponseStatus.ERROR, kind=kind,
                    request_id=request.request_id,
                    error="service is shutting down",
                )
                self._resolve_locked(ticket, response, kind, now)
                return ticket
            if self._draining:
                # Draining is shedding, not failure: in-flight work
                # finishes and is acked; new work is refused loudly so
                # the client retries against the restarted daemon.
                self._c_shed.inc()
                response = Response(
                    status=ResponseStatus.OVERLOADED, kind=kind,
                    request_id=request.request_id,
                    error="service is draining",
                )
                self._resolve_locked(ticket, response, kind, now)
                return ticket
            if cache_key is not None:
                flight = self._inflight.get(cache_key)
                if flight is not None and request.deploy_as is None:
                    flight.tickets.append(ticket)
                    self._c_coalesced.inc()
                    return ticket
            if len(self._heap) >= self.max_queue:
                self._c_shed.inc()
                response = Response(
                    status=ResponseStatus.OVERLOADED, kind=kind,
                    request_id=request.request_id,
                    error=f"queue full ({self.max_queue} pending)",
                )
                self._resolve_locked(ticket, response, kind, now)
                return ticket
            flight = _Flight(request, ticket, now, cache_key)
            if cache_key is not None and request.deadline is None:
                # A deadline may cut the answer short, which would not
                # answer a joiner that has none.
                self._inflight[cache_key] = flight
            heapq.heappush(self._heap,
                           (request.priority, next(self._seq), flight))
            self._g_queue.set(len(self._heap))
            self._work_ready.notify()
        return ticket

    # ------------------------------------------------------------------
    # Deployments
    # ------------------------------------------------------------------

    def deployments(self) -> List[str]:
        with self._lock:
            return sorted(self._deployments)

    def deployment_deployer(self, name: str) -> IncrementalDeployer:
        """The live deployer (tests and the daemon's status report)."""
        with self._lock:
            return self._deployments[name].deployer

    def register_deployment(self, name: str,
                            deployer: IncrementalDeployer) -> None:
        """Install/replace a named deployment (idempotent by name)."""
        with self._lock:
            previous = self._deployments.get(name)
            self._deployments[name] = _Deployment(deployer)
        if previous is not None:
            # A replaced deployment's session describes dead state;
            # shut its worker down outside the broker lock.
            previous.drop_session()

    def restore_deployment(self, name: str,
                           deployer: IncrementalDeployer) -> None:
        """Install a deployment during journal recovery, *without*
        journaling (the journal is where it came from) and without a
        worker (recovery forks workers once every record is replayed)."""
        with self._lock:
            self._deployments[name] = _Deployment(deployer)

    def deployment_digest(self, name: str) -> str:
        """Canonical digest of one deployment's full state (the
        recovery oracle's unit of comparison)."""
        with self._lock:
            deployment = self._deployments[name]
        with deployment.lock:
            return deployment.deployer.state_digest()

    # ------------------------------------------------------------------
    # Durability plumbing
    # ------------------------------------------------------------------

    def _journal_commit(self, kind: str, data: Dict[str, Any],
                        apply: Callable[[], Any]) -> Any:
        """Write-ahead commit: record durable, then apply, then return.

        Without a journal this is just ``apply()``.  With one, the
        mutation runs under the journal lock, so the on-disk record
        order is exactly the in-memory apply order -- replay reproduces
        the state by construction.
        """
        if self.journal is None:
            return apply()
        box: Dict[str, Any] = {}

        def run() -> None:
            box["result"] = apply()

        self.journal.commit(kind, data, apply=run)
        self.journal.maybe_snapshot(self.snapshot_state)
        return box.get("result")

    def snapshot_state(self) -> Dict[str, Any]:
        """Full serialized state for a journal compaction snapshot.

        The durable state is the deployments and the dedup table; the
        result cache and the session workers are rebuilt, not restored.
        Runs under the journal lock (no commit can interleave), so both
        are captured at an exact record boundary.  Must not take
        deployment locks: state mutations happen inside
        :meth:`_journal_commit`'s apply, which already runs under the
        journal lock.
        """
        with self._lock:
            deployments = dict(self._deployments)
            applied = [[rid, dict(summary)]
                       for rid, summary in self._applied.items()]
        states = []
        for name in sorted(deployments):
            placement = deployments[name].deployer.as_placement()
            states.append({
                "name": name,
                "instance": repro_io.instance_to_dict(placement.instance),
                "placement": repro_io.placement_to_dict(placement),
            })
        return {"deployments": states, "applied": applied}

    def applied_summary(self, request_id: Optional[str]
                        ) -> Optional[Dict[str, Any]]:
        """The committed result for a request_id, if remembered."""
        if request_id is None:
            return None
        with self._lock:
            summary = self._applied.get(request_id)
            return dict(summary) if summary is not None else None

    def record_applied(self, request_id: Optional[str],
                       summary: Dict[str, Any]) -> None:
        """Remember a committed request_id for idempotent retries."""
        if request_id is None:
            return
        with self._lock:
            self._applied[request_id] = summary
            self._applied.move_to_end(request_id)
            while len(self._applied) > _APPLIED_CAP:
                self._applied.popitem(last=False)

    def restore_applied(self, entries) -> None:
        """Reload the dedup table during recovery."""
        with self._lock:
            for request_id, summary in entries:
                self._applied[request_id] = summary
            while len(self._applied) > _APPLIED_CAP:
                self._applied.popitem(last=False)

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop accepting work, finish in-flight, flush the journal.

        Every request admitted before the drain gets its real answer;
        everything after is shed with ``OVERLOADED`` ("draining").
        Returns False if in-flight work outlived ``timeout``.
        """
        with self._lock:
            self._draining = True
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        drained = True
        while True:
            with self._lock:
                if not self._heap and self._busy_count == 0:
                    break
            if deadline is not None and time.monotonic() > deadline:
                drained = False
                break
            time.sleep(0.01)
        if self.journal is not None:
            self.journal.sync()
        return drained

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._heap)

    def busy_count(self) -> int:
        with self._lock:
            return self._busy_count

    # ------------------------------------------------------------------
    # Session workers: one per deployment
    # ------------------------------------------------------------------

    def ensure_worker(self, name: str) -> bool:
        """Give a deployment a live session worker unless it has one.

        Deploy, recovery and ``attach`` call this; a delta calls
        :meth:`_ensure_worker` under the deployment lock it already
        holds.  Returns True when a live worker is attached
        afterwards; a failed fork answers False and leaves none.
        """
        with self._lock:
            deployment = self._deployments.get(name)
        if deployment is None:
            return False
        with deployment.lock:
            try:
                # repro: allow[REP-FORK] session child only reads its pipe, never parent locks; deployment.lock serializes lifecycle
                return self._ensure_worker(deployment) is not None
            except OSError:  # pragma: no cover - fork or pipe failure
                return False

    def _ensure_worker(self, deployment: _Deployment
                       ) -> Optional[SessionWorker]:
        """The deployment's live worker, forked if missing or dead.

        Caller holds ``deployment.lock``.  The only place a session
        worker is forked: the child snapshots the *current* live
        deployer with an empty depgraph memo, so its answers are those
        of the deployer itself.  ``None`` when the broker closed
        meanwhile (the fresh worker is shut down again).
        """
        session = deployment.session
        if session is not None and session.alive:
            return session
        if session is not None:
            # Died between requests (crash, OOM kill).
            self._c_crashes.inc()
            self._discard_worker(deployment)
        deployment.session = SessionWorker(
            deployment.deployer, executor=self.pool.executor)
        self._c_sessions.inc()
        if deployment.forks:
            self._c_restarts.inc()
        deployment.forks += 1
        with self._lock:
            closed = self._closed
        if closed:
            # close() may have swept the deployments before this fork.
            deployment.drop_session()
            return None
        return deployment.session

    def _discard_worker(self, deployment: _Deployment) -> None:
        """Shut down a worker that crashed, hung or may have diverged
        from its deployment.  The next delta forks a fresh one."""
        deployment.drop_session()
        self._c_session_rebuilds.inc()

    def session_health(self) -> Dict[str, Dict[str, Any]]:
        """Liveness of every deployment's session worker."""
        with self._lock:
            deployments = dict(self._deployments)
        health: Dict[str, Dict[str, Any]] = {}
        for name, deployment in deployments.items():
            session = deployment.session
            alive = bool(session is not None and session.alive)
            health[name] = {
                "attached": session is not None,
                "alive": alive,
                "pid": session.pid if session is not None else None,
            }
        return health

    def session_op(self, request: SessionRequest) -> Response:
        """Inspect a deployment's worker (``status``), or ``attach``.

        A client never needs ``attach`` to be served: every deployment
        gets its worker when its deploy is acked, and a delta that finds
        it dead forks a fresh one.  ``attach`` only ensures a live
        worker now; it changes no durable state and journals nothing.
        """
        with self._lock:
            deployment = self._deployments.get(request.deployment)
        if deployment is None:
            return Response(
                status=ResponseStatus.BAD_REQUEST, kind=request.kind,
                request_id=request.request_id,
                error=f"unknown deployment {request.deployment!r}",
            )
        if request.op == "attach":
            attached = self.ensure_worker(request.deployment)
            return Response(
                status=ResponseStatus.OK, kind=request.kind,
                request_id=request.request_id,
                result={"deployment": request.deployment,
                        "attached": attached,
                        "executor": self.pool.executor},
            )
        with deployment.lock:
            session = deployment.session
            if session is None or not session.alive:
                return Response(
                    status=ResponseStatus.OK, kind=request.kind,
                    request_id=request.request_id,
                    result={"deployment": request.deployment,
                            "attached": False},
                )
            try:
                stats = session.stats(timeout=5.0)
            except _WORKER_FAILURES as exc:
                self._discard_worker(deployment)
                return Response(
                    status=ResponseStatus.OK, kind=request.kind,
                    request_id=request.request_id,
                    result={"deployment": request.deployment,
                            "attached": False, "error": str(exc)},
                )
            result = {"deployment": request.deployment, "attached": True,
                      "executor": session.executor}
            result.update(stats)
            return Response(status=ResponseStatus.OK, kind=request.kind,
                            request_id=request.request_id, result=result)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop dispatching; pending requests are answered ERROR."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = [flight for _p, _s, flight in self._heap]
            self._heap.clear()
            self._inflight.clear()
            self._g_queue.set(0)
            self._work_ready.notify_all()
            deployments = list(self._deployments.values())
        for deployment in deployments:
            deployment.drop_session()
        for flight in pending:
            flight.resolve(Response(
                status=ResponseStatus.ERROR, kind=flight.request.kind,
                request_id=flight.request.request_id,
                error="service is shutting down",
            ))
        for thread in self._threads:
            thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Dispatch loop (dispatcher threads)
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._heap and not self._closed:
                    self._work_ready.wait()
                if self._closed:
                    return
                _priority, _seq, flight = heapq.heappop(self._heap)
                self._g_queue.set(len(self._heap))
            self._execute(flight)

    def _execute(self, flight: _Flight) -> None:
        request = flight.request
        kind = request.kind
        waited = self.clock() - flight.admitted_at
        self._h_queue_wait.observe(waited)

        self._g_busy.inc()
        with self._lock:
            self._busy_count += 1
        try:
            # Inside the try: a deadline that is not a number (an
            # in-process caller skips the wire decoder) answers ERROR
            # instead of killing this dispatcher.
            remaining: Optional[float] = None
            if request.deadline is not None:
                remaining = request.deadline - waited
            if remaining is not None and remaining <= 0:
                self._c_expired.inc()
                response = Response(
                    status=ResponseStatus.DEADLINE_EXCEEDED, kind=kind,
                    error=f"deadline ({request.deadline:.3f}s) passed "
                          f"after {waited:.3f}s in queue",
                )
            elif isinstance(request, SolveRequest):
                response = self._run_solve(request, remaining)
            elif isinstance(request, DeltaRequest):
                response = self._run_delta(request, remaining)
            elif isinstance(request, VerifyRequest):
                response = self._run_verify(request, remaining)
            else:  # pragma: no cover - submit() only admits these three
                response = Response(
                    status=ResponseStatus.BAD_REQUEST, kind=kind,
                    error=f"broker cannot execute kind {kind!r}",
                )
        except Exception as exc:  # defensive net: the thread must live
            response = Response(
                status=ResponseStatus.ERROR, kind=kind,
                error=f"dispatcher failure: {type(exc).__name__}: {exc}",
            )
        finally:
            self._g_busy.dec()
            with self._lock:
                self._busy_count -= 1
        response.request_id = request.request_id
        self._finish(None, flight, response, kind, flight.admitted_at)

    # ------------------------------------------------------------------
    # Executors per request kind
    # ------------------------------------------------------------------

    def _pool_timeout(self, remaining: Optional[float]) -> Optional[float]:
        return None if remaining is None else remaining + _WORKER_GRACE

    def _run_solve(self, request: SolveRequest,
                   remaining: Optional[float]) -> Response:
        self._c_solves.inc()
        try:
            payload = self.pool.run(
                solve_task, request, remaining,
                timeout=self._pool_timeout(remaining),
            )
        except _WORKER_FAILURES as exc:
            return self._worker_failure(request, exc)

        solved = SolveStatus(payload["placement"]["status"])
        if payload["feasible"]:  # a time-limit incumbent included
            status = ResponseStatus.OK
        elif solved is SolveStatus.INFEASIBLE:
            status = ResponseStatus.INFEASIBLE
        else:
            return Response(
                status=(ResponseStatus.DEADLINE_EXCEEDED
                        if solved is SolveStatus.TIME_LIMIT
                        else ResponseStatus.ERROR),
                kind=request.kind,
                error=f"solve ended {solved.value} with no placement: "
                      f"{payload['summary']}")
        result = {
            "placement": payload["placement"],
            "objective": payload["objective"],
            "installed_rules": payload["installed_rules"],
            "summary": payload["summary"],
        }
        cache_key = request.cache_key()
        if solved in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
            # Only a proven answer is a pure function of its key: an
            # incumbent cut short by a time limit may not be optimal.
            self.cache.put(cache_key, {"status": status, "result": result})

        if request.deploy_as is not None and payload["feasible"]:
            placement = repro_io.placement_from_dict(
                payload["placement"], request.instance
            )
            deployer = IncrementalDeployer(placement)
            self._journal_commit("deploy", {
                "name": request.deploy_as,
                "instance": repro_io.instance_to_dict(request.instance),
                "placement": payload["placement"],
                "request_id": request.request_id,
            }, lambda: self.register_deployment(request.deploy_as,
                                                deployer))
            self.ensure_worker(request.deploy_as)
            result = dict(result)
            result["deployed_as"] = request.deploy_as
            result["state_digest"] = deployer.state_digest()
        return Response(status=status, kind=request.kind, result=result,
                        served="solved", cache_key=cache_key)

    def _run_delta(self, request: DeltaRequest,
                   remaining: Optional[float]) -> Response:
        replayed = self.applied_summary(request.request_id)
        if replayed is not None:
            # The client retried a commit that already applied (its
            # connection died between our commit and its ack): answer
            # with the original result instead of double-applying.
            self._c_replays.inc()
            return Response(
                status=ResponseStatus.OK, kind=request.kind,
                served="replay", result=replayed,
            )
        with self._lock:
            deployment = self._deployments.get(request.deployment)
        if deployment is None:
            return Response(
                status=ResponseStatus.BAD_REQUEST, kind=request.kind,
                error=f"unknown deployment {request.deployment!r}",
            )
        # Serialize per deployment: previews read the live state and
        # commits mutate it; two racing deltas must not interleave.
        with deployment.lock:
            deployer = deployment.deployer
            if request.op == "remove":
                # Pure bookkeeping (paper: deletion is "relatively
                # easy") -- no worker needed, nothing can crash.
                # Validation runs *before* journaling: only applicable
                # operations reach the log.
                if not deployer.has_policy(request.ingress):
                    return Response(
                        status=ResponseStatus.BAD_REQUEST,
                        kind=request.kind,
                        error=f"no deployed policy for "
                              f"{request.ingress!r}",
                    )
                result: Dict[str, Any] = {}

                def apply_remove() -> None:
                    # Same rule as apply_delta: dedup entry inside the
                    # journal apply, so snapshots can never split a
                    # commit from its retry memory.
                    freed = deployer.remove_policy(request.ingress)
                    result.update({
                        "op": "remove", "freed_slots": freed,
                        "method": "bookkeeping",
                        "total_installed": deployer.total_installed(),
                        "state_digest": deployer.state_digest()})
                    self.record_applied(request.request_id, result)

                self._journal_commit("remove", {
                    "deployment": request.deployment,
                    "ingress": request.ingress,
                    "request_id": request.request_id,
                }, apply_remove)
                self._mirror(deployment, lambda s: s.remove(
                    request.ingress, timeout=5.0))
                return Response(
                    status=ResponseStatus.OK, kind=request.kind,
                    served="inline", result=result,
                )
            # repro: allow[REP-FORK] session child only reads its pipe, never parent locks; deployment.lock serializes lifecycle
            payload, failure = self._preview(deployment, request, remaining)
            if failure is not None:
                return failure
            if not payload["feasible"]:
                return Response(
                    status=ResponseStatus.INFEASIBLE, kind=request.kind,
                    served="session",
                    result={"op": request.op, "status": payload["status"],
                            "method": payload["method"],
                            "solve_seconds": payload["seconds"],
                            "solver_stats": payload.get("solver_stats",
                                                        {})},
                )
            placed = _placed_from(payload["placed"])
            result: Dict[str, Any] = {}

            def apply_delta() -> None:
                # Result summary + dedup entry are built INSIDE the
                # journal apply (under the journal lock): a compaction
                # snapshot covering this record must already see its
                # dedup entry, or a crash right after the snapshot
                # would forget the commit was applied.
                commit_delta(deployer, request, placed)
                result.update({
                    "op": request.op,
                    "method": payload["method"],
                    "installed_rules": payload["installed_rules"],
                    "solve_seconds": payload["seconds"],
                    "solver_stats": payload.get("solver_stats", {}),
                    "total_installed": deployer.total_installed(),
                    "state_digest": deployer.state_digest(),
                })
                self.record_applied(request.request_id, result)

            self._journal_commit("delta", {
                "deployment": request.deployment,
                "request": request.to_dict(),
                "placed": payload["placed"],
            }, apply_delta)
            # The worker previewed against its own snapshot; mirror the
            # commit so the snapshot tracks the authority.
            self._mirror(deployment,
                         lambda s: s.commit(request, placed, timeout=5.0))
            return Response(
                status=ResponseStatus.OK, kind=request.kind,
                served="session", result=result,
            )

    def _preview(self, deployment: _Deployment, request: DeltaRequest,
                 remaining: Optional[float]):
        """Preview one delta in the deployment's worker.

        Returns ``(payload, None)``, or ``(None, response)`` for a
        preview that ended without a payload.  Caller holds
        ``deployment.lock``.  A delta forks at most one worker:

        * a missing or dead worker is forked before the preview;
        * a crash of the worker the delta found alive cost the worker,
          not the request, so the preview is retried once on a fresh
          fork;
        * a crash on a fork this delta made answers ``worker_crashed``
          and leaves no worker -- the next delta forks one;
        * a timeout drops the worker and answers ``deadline_exceeded``;
          after a :class:`WorkerError` the worker keeps serving.

        None of these touch the deployment itself.
        """
        timeout = self._pool_timeout(remaining)
        found = deployment.session
        session = self._ensure_worker(deployment)
        retry = session is found
        while True:
            if session is None:
                return None, Response(
                    status=ResponseStatus.ERROR, kind=request.kind,
                    error="service is shutting down")
            try:
                payload = session.preview(request, remaining, timeout=timeout)
            except WorkerCrash as exc:
                self._discard_worker(deployment)
                if not retry:
                    return None, self._worker_failure(request, exc)
                self._c_crashes.inc()
                retry = False
                session = self._ensure_worker(deployment)
                continue
            except TimeoutError as exc:
                self._discard_worker(deployment)
                return None, self._worker_failure(request, exc)
            except WorkerError as exc:
                return None, self._worker_failure(request, exc)
            self._c_session_deltas.inc()
            return payload, None

    def _mirror(self, deployment: _Deployment, call) -> None:
        """Forward a committed change into the worker's snapshot.

        A worker that fails to take it may have diverged from the
        deployment, so it is discarded.
        """
        session = deployment.session
        if session is None or not session.alive:
            return
        try:
            call(session)
        except _WORKER_FAILURES:
            self._discard_worker(deployment)

    def _run_verify(self, request: VerifyRequest,
                    remaining: Optional[float]) -> Response:
        try:
            payload = self.pool.run(
                verify_task, request.instance, request.placement,
                timeout=self._pool_timeout(remaining),
            )
        except _WORKER_FAILURES as exc:
            return self._worker_failure(request, exc)
        return Response(status=ResponseStatus.OK, kind=request.kind,
                        served="solved", result=payload)

    def _worker_failure(self, request, exc: Exception) -> Response:
        """The answer for a worker call that ended without a payload.

        A crash is counted.  A ValueError raised while a worker decodes
        or previews a delta (unknown ingress, duplicate policy, a flow
        of another width than its policy) or decodes a verify's
        placement is the client's mistake.
        """
        message = str(exc)
        if isinstance(exc, WorkerCrash):
            self._c_crashes.inc()
            status = ResponseStatus.WORKER_CRASHED
        elif isinstance(exc, TimeoutError):
            status = ResponseStatus.DEADLINE_EXCEEDED
        elif (isinstance(request, (DeltaRequest, VerifyRequest))
              and "ValueError:" in message):
            status = ResponseStatus.BAD_REQUEST
        else:
            status = ResponseStatus.ERROR
        return Response(status=status, kind=request.kind, error=message)

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------

    def _finish(self, ticket: Optional[Ticket], flight: Optional[_Flight],
                response: Response, kind: str, admitted_at: float) -> None:
        """Resolve a ticket or a whole flight, with metrics."""
        elapsed = self.clock() - admitted_at
        if response.seconds is None:
            response.seconds = elapsed
        self._c_by_status[response.status].inc()
        if kind in self._h_latency:
            self._h_latency[kind].observe(elapsed)
        if flight is not None:
            if flight.cache_key is not None:
                with self._lock:
                    if self._inflight.get(flight.cache_key) is flight:
                        del self._inflight[flight.cache_key]
            flight.resolve(response)
        elif ticket is not None:
            ticket.resolve(response)

    def _resolve_locked(self, ticket: Ticket, response: Response,
                        kind: str, admitted_at: float) -> None:
        """_finish for paths already holding the broker lock."""
        if response.seconds is None:
            response.seconds = self.clock() - admitted_at
        self._c_by_status[response.status].inc()
        if kind in self._h_latency:
            self._h_latency[kind].observe(self.clock() - admitted_at)
        ticket.resolve(response)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _placed_from(entries) -> Dict[RuleKey, FrozenSet[str]]:
    return {
        (entry["ingress"], entry["priority"]): frozenset(entry["switches"])
        for entry in entries
    }
