"""The placement daemon: the service facade and its stdio transport.

:class:`PlacementService` assembles the serving stack -- metrics
registry, content-addressed result cache, worker pool, broker -- behind
two call styles:

* **in-process**: ``service.submit(request)`` returns a ticket
  (future); ``service.handle(request)`` blocks for the response.  The
  load generator and the test suite drive the service this way.
* **over the wire**: newline-delimited JSON, one request per line and
  one response per line, correlated by ``request_id``; a malformed
  line gets a ``BAD_REQUEST`` response instead of killing the
  connection.  TCP is served by
  :class:`~repro.service.frontend.AsyncFrontend` (``repro serve
  --port``), stdio by :func:`serve_stdio` (``repro serve --stdio``).

Control-plane requests (``ping``, ``health``, ``ready``, ``metrics``,
``invalidate``, ``session``) are answered inline without queueing --
liveness probes must work *because* the daemon is overloaded, not when
it happens to be idle.

Durability (PR 7): ``journal_dir`` attaches a write-ahead
:class:`~repro.service.journal.Journal` of deployments and their acked
requests -- everything a restart restores.  At boot the service replays
the journal -- newest snapshot plus record tail -- and rebuilds every
acked deployment and dedup entry, then forks each deployment's session
worker, before accepting the first request.  The result cache starts
empty, and a worker that dies later is forked again by the next delta
that needs it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .. import __version__
from .. import io as repro_io
from ..core.incremental import IncrementalDeployer
from .broker import Broker, Ticket
from .cache import ResultCache
from .journal import Journal, RecoveredState
from .metrics import MetricsRegistry
from .protocol import (
    DeltaRequest,
    HealthRequest,
    InvalidateRequest,
    MetricsRequest,
    PingRequest,
    ReadyRequest,
    Request,
    Response,
    ResponseStatus,
    SessionRequest,
    checked_deadline,
    decode_request_or_error,
    encode_response,
)
from .workers import commit_delta, WorkerPool

__all__ = ["PlacementService", "ServiceConfig"]


class ServiceConfig:
    """Every serving knob in one bag (CLI flags map 1:1 onto these)."""

    def __init__(
        self,
        max_queue: int = 64,
        dispatchers: int = 2,
        max_workers: int = 4,
        executor: str = "process",
        cache_entries: int = 256,
        cache_bytes: Optional[int] = None,
        default_deadline: Optional[float] = None,
        journal_dir: Optional[str] = None,
        durability: str = "fsync",
        snapshot_every: int = 256,
    ) -> None:
        self.max_queue = max_queue
        self.dispatchers = dispatchers
        self.max_workers = max_workers
        self.executor = executor
        self.cache_entries = cache_entries
        self.cache_bytes = cache_bytes
        #: Applied to every solve, delta and verify sent without one;
        #: held to the wire's rule for a ``deadline`` (a ValueError).
        #: Set, it also stops solves coalescing: only a solve without a
        #: deadline leads a flight others join.
        self.default_deadline = checked_deadline(default_deadline)
        #: Directory for the write-ahead journal; ``None`` disables
        #: durability (the pre-PR-7 volatile behavior).
        self.journal_dir = journal_dir
        #: What an ack survives: ``fsync`` (power loss), ``flush``
        #: (process death), ``none`` (benchmark baseline).
        self.durability = durability
        self.snapshot_every = snapshot_every


class PlacementService:
    """The assembled serving stack (broker + cache + workers + metrics)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(
            max_entries=self.config.cache_entries,
            max_bytes=self.config.cache_bytes,
        )
        self.pool = WorkerPool(
            executor=self.config.executor,
            max_workers=self.config.max_workers,
        )
        self._c_recoveries = self.metrics.counter(
            "recoveries_total",
            "boots that replayed a non-empty journal")
        self.journal: Optional[Journal] = None
        recovered: Optional[RecoveredState] = None
        if self.config.journal_dir is not None:
            self.journal = Journal(
                self.config.journal_dir,
                durability=self.config.durability,
                snapshot_every=self.config.snapshot_every,
                metrics=self.metrics,
            )
            recovered = self.journal.recover()
        self.broker = Broker(
            pool=self.pool,
            cache=self.cache,
            metrics=self.metrics,
            max_queue=self.config.max_queue,
            dispatchers=self.config.dispatchers,
            journal=self.journal,
        )
        self.last_recovery: Dict[str, Any] = {}
        if recovered is not None and not recovered.empty:
            self.last_recovery = self._recover(recovered)
            self._c_recoveries.inc()
        self._closed = False

    # ------------------------------------------------------------------
    # Journal recovery
    # ------------------------------------------------------------------

    def _recover(self, state: RecoveredState) -> Dict[str, Any]:
        """Rebuild the serving state the journal promises.

        Order matters: the snapshot is the base, then records replay in
        commit order -- the same order the pre-crash daemon applied
        them -- so the rebuilt deployers are digest-identical by
        construction.  Every deployment gets its worker only after the
        state is final (a worker forks a snapshot of its deployer).
        """
        report: Dict[str, Any] = {
            "snapshot_seq": 0, "records": len(state.records),
            "deployments": 0, "deltas": 0, "removes": 0,
            "sessions": 0, "duplicates": state.duplicate_records,
            "truncated_tail_bytes": state.truncated_tail_bytes,
        }
        # Older snapshots also carry ``epochs`` and, per deployment,
        # ``quarantined``, ``session_desired`` and ``session_backend``
        # keys; recovery ignores them.
        if state.snapshot is not None:
            report["snapshot_seq"] = state.snapshot.get("seq", 0)
            for spec in state.snapshot.get("deployments", []):
                instance = repro_io.instance_from_dict(spec["instance"])
                placement = repro_io.placement_from_dict(
                    spec["placement"], instance)
                self.broker.restore_deployment(
                    spec["name"], IncrementalDeployer(placement))
                report["deployments"] += 1
            self.broker.restore_applied(state.snapshot.get("applied", []))
        for record in state.records:
            self._replay_record(record, report)
        for name in self.broker.deployments():
            if self.broker.ensure_worker(name):
                report["sessions"] += 1
        return report

    def _replay_record(self, record, report: Dict[str, Any]) -> None:
        data = record.data
        if record.kind == "deploy":
            instance = repro_io.instance_from_dict(data["instance"])
            placement = repro_io.placement_from_dict(
                data["placement"], instance)
            self.broker.restore_deployment(
                data["name"], IncrementalDeployer(placement))
            report["deployments"] += 1
        elif record.kind == "delta":
            # A replayed delta's deadline is spent.  Older daemons
            # journaled it as sent, which the decoder may now refuse.
            request = DeltaRequest.from_dict(
                dict(data["request"], deadline=None))
            deployer = self.broker.deployment_deployer(data["deployment"])
            placed = {
                (entry["ingress"], entry["priority"]):
                    frozenset(entry["switches"])
                for entry in data["placed"]
            }
            commit_delta(deployer, request, placed)
            self._remember_replay(request.request_id, request.op, deployer)
            report["deltas"] += 1
        elif record.kind == "remove":
            deployer = self.broker.deployment_deployer(data["deployment"])
            deployer.remove_policy(data["ingress"])
            self._remember_replay(data.get("request_id"), "remove",
                                  deployer)
            report["removes"] += 1
        # Older journals also hold ``epoch`` records (cache epochs) and
        # ``session`` records (attach, detach); they restore nothing
        # and, like unknown kinds, are skipped.

    def _remember_replay(self, request_id: Optional[str], op: str,
                         deployer: IncrementalDeployer) -> None:
        """Re-arm the dedup table for a replayed commit.

        The full original result payload is gone with the old process;
        what a retrying client *needs* is the proof its operation is
        applied -- op, totals, and the state digest.
        """
        if request_id is None:
            return
        self.broker.record_applied(request_id, {
            "op": op, "recovered": True,
            "total_installed": deployer.total_installed(),
            "state_digest": deployer.state_digest(),
        })

    # ------------------------------------------------------------------
    # In-process API
    # ------------------------------------------------------------------

    def submit(self, request: Request) -> Ticket:
        """Admit one request; control-plane kinds resolve instantly."""
        if isinstance(request, PingRequest):
            ticket = Ticket()
            ticket.resolve(Response(
                status=ResponseStatus.OK, kind=request.kind,
                request_id=request.request_id,
                result={"pong": True, "version": __version__,
                        "deployments": self.broker.deployments()},
            ))
            return ticket
        if isinstance(request, MetricsRequest):
            ticket = Ticket()
            snapshot = self.metrics.snapshot()
            snapshot["cache"] = self.cache.stats().as_dict()
            ticket.resolve(Response(
                status=ResponseStatus.OK, kind=request.kind,
                request_id=request.request_id,
                result={"metrics": snapshot,
                        "prometheus": self.metrics.render_prometheus()},
            ))
            return ticket
        if isinstance(request, SessionRequest):
            # Control-plane: attach at most forks a worker (fast) and
            # status asks the worker for its telemetry -- neither
            # should queue behind solves.
            ticket = Ticket()
            ticket.resolve(self.broker.session_op(request))
            return ticket
        if isinstance(request, HealthRequest):
            ticket = Ticket()
            ticket.resolve(Response(
                status=ResponseStatus.OK, kind=request.kind,
                request_id=request.request_id,
                result=self.health(deep=request.deep),
            ))
            return ticket
        if isinstance(request, ReadyRequest):
            ticket = Ticket()
            ready = not self._closed and not self.broker.draining
            ticket.resolve(Response(
                status=ResponseStatus.OK, kind=request.kind,
                request_id=request.request_id,
                result={"ready": ready,
                        "draining": self.broker.draining,
                        "queue_depth": self.broker.queue_depth()},
            ))
            return ticket
        if isinstance(request, InvalidateRequest):
            # The cache is volatile, so a clear is not journaled: a
            # restarted daemon starts with an empty cache anyway.
            ticket = Ticket()
            ticket.resolve(Response(
                status=ResponseStatus.OK, kind=request.kind,
                request_id=request.request_id,
                result={"dropped": self.cache.clear()},
            ))
            return ticket
        if (getattr(request, "deadline", None) is None
                and self.config.default_deadline is not None):
            request.deadline = self.config.default_deadline
        return self.broker.submit(request)

    def handle(self, request: Request,
               timeout: Optional[float] = None) -> Response:
        """Submit and block for the answer."""
        return self.submit(request).result(timeout)

    def handle_line(self, line: str) -> str:
        """One NDJSON request line -> one NDJSON response line."""
        request, bad_answer = decode_request_or_error(line)
        if bad_answer is not None:
            return bad_answer
        return encode_response(self.handle(request))

    def close(self, drain: bool = False,
              drain_timeout: Optional[float] = 30.0) -> None:
        """Shut the stack down.

        ``drain=True`` is the graceful path (SIGTERM): stop accepting,
        let queued and in-flight requests finish and be acked, flush the
        journal, then tear down.  ``drain=False`` answers pending
        requests with ERROR (the old behavior, kept for tests and
        emergency stops) -- still safe, because every *acked* commit is
        already durable.
        """
        if self._closed:
            return
        self._closed = True
        if drain:
            self.broker.drain(timeout=drain_timeout)
        self.broker.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "PlacementService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self, deep: bool = False) -> Dict[str, Any]:
        """Journal lag, worker liveness, queue depth -- the payload of
        the ``health`` verb.

        A deployment whose worker died is listed under
        ``dead_sessions`` but leaves the daemon healthy: the next delta
        forks it a fresh worker.  ``deep=True`` additionally round-trips
        every live session worker (a real child-process liveness proof;
        one that does not answer is unhealthy) and reports each
        deployment's state digest, which is what the recovery oracle
        compares across restarts.
        """
        sessions = self.broker.session_health()
        report: Dict[str, Any] = {
            "healthy": True,
            "version": __version__,
            "draining": self.broker.draining,
            "queue_depth": self.broker.queue_depth(),
            "busy_workers": self.broker.busy_count(),
            "live_workers": self.pool.live_workers,
            "deployments": self.broker.deployments(),
            "sessions": sessions,
            "journal": (self.journal.lag() if self.journal is not None
                        else None),
            "recovery": self.last_recovery or None,
        }
        dead = [name for name, info in sessions.items()
                if not info["alive"]]
        if dead:
            report["dead_sessions"] = dead
        if deep:
            digests: Dict[str, str] = {}
            probes: Dict[str, bool] = {}
            for name in self.broker.deployments():
                try:
                    digests[name] = self.broker.deployment_digest(name)
                except KeyError:  # pragma: no cover - raced a replace
                    continue
                info = sessions.get(name, {})
                if info.get("alive"):
                    response = self.broker.session_op(
                        SessionRequest(deployment=name, op="status"))
                    probes[name] = bool(
                        response.ok and response.result
                        and response.result.get("attached"))
                    if not probes[name]:
                        report["healthy"] = False
            report["state_digests"] = digests
            report["session_probes"] = probes
        return report

    def status(self) -> Dict[str, Any]:
        """Operator snapshot: versions, cache, queue, deployments."""
        return {
            "version": __version__,
            "executor": self.pool.executor,
            "cache": self.cache.stats().as_dict(),
            "deployments": self.broker.deployments(),
            "metrics": self.metrics.snapshot(),
            "journal": (self.journal.lag() if self.journal is not None
                        else None),
        }


def serve_stdio(service: PlacementService, stdin, stdout) -> int:
    """NDJSON over stdio: read request lines until EOF."""
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        stdout.write(service.handle_line(line) + "\n")
        stdout.flush()
    return 0
