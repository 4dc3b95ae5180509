"""Crash-isolated task execution for the placement daemon.

A long-running service cannot let one bad request take the process
down: a solver segfault, an OOM kill, or a pathological instance must
fail *that request* and nothing else.  :class:`WorkerPool` gives every
admitted solve and verify its own forked child (:mod:`repro.forkpipe`,
the one fork primitive the portfolio race and component solver share),
whose endings map to distinct outcomes:

* normal return        -- the task's JSON-able payload;
* Python exception     -- :class:`WorkerError` carrying the traceback
  (an *error* answer, the daemon keeps running);
* hard death           -- exit without posting (``os._exit``, signal,
  OOM): :class:`WorkerCrash`, again scoped to the one request;
* a passed deadline    -- :class:`TimeoutError`, the child killed.

``executor="inline"`` runs tasks in-process for determinism (tests,
platforms without ``fork``); inline tasks still map exceptions to
:class:`WorkerError` but cannot survive hard death -- crash isolation
is exactly what the process executor buys.

The module also defines the service's task functions.  Tasks receive
live objects (fork shares the parent's memory copy-on-write; nothing is
pickled on the way in) and return compact JSON-able payloads (the only
data crossing the process boundary on the way out).

Deltas do not fork per request: each deployment has one persistent
:class:`SessionWorker`, whose child runs :func:`delta_task` --
:class:`~repro.core.incremental.IncrementalDeployer` *previews*,
compute without commit -- against its own snapshot of the deployment.
The daemon applies the returned placement to the live deployment only
after the preview has succeeded, then mirrors the commit into the
worker.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional

from .. import io as repro_io
from ..core.depgraph import build_dependency_graph
from ..core.incremental import IncrementalDeployer, certified_greedy
from ..core.instance import PlacementInstance
from ..core.objectives import NAMED_OBJECTIVES
from ..core.placement import PlacerConfig, RulePlacer
from ..core.verify import verify_placement
from ..forkpipe import (CAN_FORK, Child, WorkerCrash, WorkerError, reply,
                        run_child)
# Imported now, before the daemon starts a thread, rather than on the
# first request: the ``repro.solve`` package loads every solve module a
# request reaches, and a child forked while another thread is part-way
# through a module's first import waits forever on that module's import
# lock.
from ..solve.portfolio import canonical_backend
from ..solve.session import SolverSession
from .protocol import DeltaRequest, SolveRequest

__all__ = [
    "SessionWorker",
    "WorkerCrash",
    "WorkerError",
    "WorkerPool",
    "commit_delta",
    "delta_task",
    "solve_task",
    "verify_task",
]


class WorkerPool:
    """Run one task per isolated worker process, bounded in parallelism.

    ``max_workers`` bounds concurrently live workers (a semaphore, not
    a pre-forked pool: each request forks fresh, so a crashed worker
    never poisons a reusable slot).  ``run`` blocks the calling
    dispatcher thread until its worker finishes -- concurrency comes
    from the broker running several dispatcher threads.
    """

    def __init__(self, executor: str = "process",
                 max_workers: int = 4) -> None:
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not CAN_FORK:  # pragma: no cover - non-POSIX fallback
            executor = "inline"
        self.executor = executor
        self.max_workers = max_workers
        self._slots = threading.Semaphore(max_workers)
        self._live = 0
        self._live_lock = threading.Lock()

    @property
    def live_workers(self) -> int:
        with self._live_lock:
            return self._live

    # ------------------------------------------------------------------

    def run(self, task: Callable[..., Dict[str, Any]], *args: Any,
            timeout: Optional[float] = None) -> Dict[str, Any]:
        """Execute ``task(*args)`` in isolation and return its payload.

        Raises :class:`WorkerError` on a task exception,
        :class:`WorkerCrash` on worker death, and
        :class:`TimeoutError` when ``timeout`` elapses first (the
        straggler is killed -- a hung solver must not pin a slot
        forever).
        """
        self._slots.acquire()
        with self._live_lock:
            self._live += 1
        try:
            if self.executor == "process":
                return run_child(task, *args, timeout=timeout)
            try:
                return task(*args)
            except Exception:
                raise WorkerError(traceback.format_exc(limit=6)) from None
        finally:
            with self._live_lock:
                self._live -= 1
            self._slots.release()


# ---------------------------------------------------------------------------
# Task functions
# ---------------------------------------------------------------------------


def solve_task(request: SolveRequest,
               time_limit: Optional[float] = None) -> Dict[str, Any]:
    """Full placement: the certified greedy first, else the pipeline.

    A total-rules solve without merging on the default backend (``highs``
    or an alias) first tries
    :func:`~repro.core.incremental.certified_greedy`: when the greedy
    meets the counting lower bound it is the optimum, and no model is
    encoded or solved.  Otherwise, and for every other request,
    ``RulePlacer`` runs as in one-shot solves, reusing the dependency
    graphs built here: ``backend="portfolio"`` races every exact engine,
    anything else goes through the named MILP backend, and component
    decomposition applies.
    """
    instance = request.instance
    started = time.perf_counter()
    depgraphs = {policy.ingress: build_dependency_graph(policy)
                 for policy in instance.policies}
    depgraph_ms = (time.perf_counter() - started) * 1000.0
    placement = None
    if (request.objective == "rules" and not request.merging
            and canonical_backend(request.backend) == "highs"):
        placement = certified_greedy(instance, depgraphs)
    if placement is None:
        config = PlacerConfig(
            objective=NAMED_OBJECTIVES[request.objective],
            enable_merging=request.merging,
            backend=request.backend,
            time_limit=time_limit,
            deadline=time_limit if request.backend == "portfolio" else None,
        )
        placement = RulePlacer(config).place(instance, depgraphs=depgraphs)
    # The placer timed only its reuse of the graphs; report building them.
    placement.solver_stats.setdefault("compile", {})["depgraph_ms"] = \
        depgraph_ms
    return {
        "placement": repro_io.placement_to_dict(placement),
        "feasible": placement.is_feasible,
        "objective": placement.objective_value,
        "installed_rules": (
            placement.total_installed() if placement.is_feasible else 0
        ),
        "summary": placement.summary(),
    }


def delta_task(deployer: IncrementalDeployer, request: DeltaRequest,
               time_limit: Optional[float] = None) -> Dict[str, Any]:
    """One incremental operation, previewed (computed, NOT committed).

    The greedy -> sub-ILP ladder runs here in the deployment's session
    worker; the broker applies the returned placement to the live
    deployer only on success, so a crashed delta leaves the deployment
    untouched.
    """
    if request.op == "install":
        policy = repro_io.policy_from_dict(request.policy)
        paths = repro_io.paths_from_dict(request.paths)
        result = deployer.preview_install(policy, paths,
                                          time_limit=time_limit)
    elif request.op == "reroute":
        paths = repro_io.paths_from_dict(request.paths)
        result = deployer.preview_reroute(request.ingress, paths,
                                          time_limit=time_limit)
    elif request.op == "modify":
        policy = repro_io.policy_from_dict(request.policy)
        result = deployer.preview_modify(policy, time_limit=time_limit)
    else:
        raise ValueError(f"delta op {request.op!r} does not need a worker")
    return {
        "status": result.status.value,
        "method": result.method,
        "feasible": result.is_feasible,
        "seconds": result.seconds,
        "installed_rules": result.installed_rules,
        "solver_stats": dict(getattr(result, "solver_stats", {}) or {}),
        "placed": [
            {"ingress": key[0], "priority": key[1],
             "switches": sorted(switches)}
            for key, switches in sorted(result.placed.items())
        ],
    }


def commit_delta(deployer: IncrementalDeployer, request: DeltaRequest,
                 placed) -> int:
    """Apply a previewed delta's placement to a live deployer.

    Shared by the broker (committing to the authoritative deployment)
    and the session worker child (keeping its mirror in sync).
    Returns the deployer's total installed rules after the commit.
    """
    if request.op == "install":
        policy = repro_io.policy_from_dict(request.policy)
        deployer.commit_install(
            policy, repro_io.paths_from_dict(request.paths), placed)
    elif request.op == "reroute":
        deployer.apply_reroute(
            request.ingress, repro_io.paths_from_dict(request.paths), placed)
    elif request.op == "modify":
        policy = repro_io.policy_from_dict(request.policy)
        deployer.apply_modify(policy, placed)
    else:
        raise ValueError(f"cannot commit delta op {request.op!r}")
    return deployer.total_installed()


def verify_task(instance: PlacementInstance,
                placement_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Exact verification of a placement against its instance."""
    placement = repro_io.placement_from_dict(placement_dict, instance)
    report = verify_placement(placement)
    return {
        "ok": report.ok,
        "errors": list(report.errors),
        "paths_checked": report.paths_checked,
        "switches_checked": report.switches_checked,
    }


# ---------------------------------------------------------------------------
# Session worker
# ---------------------------------------------------------------------------

#: How long a closing session child gets to acknowledge its shutdown.
_SHUTDOWN_TIMEOUT = 1.0


class SessionWorker:
    """The long-lived worker that previews one deployment's deltas.

    The broker gives every deployment exactly one, forked once its
    deploy is acked (and again at recovery, or after the previous one
    was lost).  Unlike :class:`WorkerPool` children, which die with
    their request, it keeps state that *survives* requests: a snapshot
    of the deployment and the pinned dependency-graph memo of a
    :class:`~repro.solve.session.SolverSession`.

    * ``executor="process"`` forks **one** child.  The fork's
      copy-on-write memory gives the child a snapshot of the live
      deployer; the child attaches a session to it and then serves
      ``preview`` / ``commit`` / ``remove`` / ``stats`` commands over a
      pipe until shut down.  Previews run the deployer's usual greedy
      -> sub-ILP ladder.  Commits and removes are mirrored into the
      child so its snapshot tracks the authoritative deployment in the
      parent.  A child that dies or hangs surfaces as
      :class:`WorkerCrash` / :class:`TimeoutError` -- the broker's cue
      to discard the worker and fork a fresh one.
    * ``executor="inline"`` attaches the session directly to the live
      deployer (tests, platforms without ``fork``).  ``commit`` is a
      no-op because the mirror *is* the authority.

    A crash loses the worker and its memo but never the deployment,
    because the authoritative deployer lives in the parent and is only
    mutated after a successful preview.
    """

    def __init__(self, deployer: IncrementalDeployer,
                 executor: str = "process") -> None:
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        if not CAN_FORK:  # pragma: no cover - non-POSIX fallback
            executor = "inline"
        self.executor = executor
        self._lock = threading.Lock()
        self._dead = False
        self._child: Optional[Child] = None
        self._deployer: Optional[IncrementalDeployer] = None
        if executor == "process":
            self._child = Child(_session_child_main, deployer)
        else:
            self._deployer = deployer
            self._session = SolverSession()
            deployer.attach_session(self._session)

    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        if self._dead:
            return False
        return self._child is None or self._child.alive

    @property
    def pid(self) -> Optional[int]:
        """The child's OS pid (``None`` inline) -- the health report's
        and the chaos harness's kill target."""
        return None if self._child is None else self._child.pid

    def preview(self, request: DeltaRequest,
                time_limit: Optional[float] = None,
                timeout: Optional[float] = None) -> Dict[str, Any]:
        """Run one delta preview through the session."""
        return self._call(("preview", request, time_limit), timeout)

    def commit(self, request: DeltaRequest, placed,
               timeout: Optional[float] = None) -> None:
        """Mirror a committed delta into the worker's snapshot."""
        if self.executor == "inline":
            return  # the mirror is the live deployer; already committed
        placed_wire = {key: sorted(switches)
                       for key, switches in placed.items()}
        self._call(("commit", request, placed_wire), timeout)

    def remove(self, ingress: str,
               timeout: Optional[float] = None) -> None:
        """Mirror a policy removal into the worker's snapshot."""
        if self.executor == "inline":
            return
        self._call(("remove", ingress), timeout)

    def stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Session telemetry (depgraph memo hits and misses)."""
        if self.executor == "inline":
            return {"session": self._session.telemetry(),
                    "total_installed": self._deployer.total_installed()}
        return self._call(("stats",), timeout)

    def close(self) -> None:
        """Shut the worker down; safe to call twice or after a crash."""
        if self.executor == "inline":
            if not self._dead and self._deployer is not None:
                self._deployer.detach_session()
            self._dead = True
            return
        try:
            # An acknowledged shutdown leaves a child exiting on its
            # own; without the ack, Child.close kills a straggler.
            self._call(("shutdown",), _SHUTDOWN_TIMEOUT)
        except (WorkerCrash, WorkerError, TimeoutError):
            pass
        with self._lock:
            self._dead = True
            self._child.close()

    # ------------------------------------------------------------------

    def _call(self, message, timeout: Optional[float]) -> Dict[str, Any]:
        if self.executor == "inline":
            return self._call_inline(message)
        with self._lock:
            if self._dead or not self._child.alive:
                self._dead = True
                raise WorkerCrash("session worker is gone")
            try:
                self._child.send(message)
                return self._child.receive(timeout)
            except (WorkerCrash, TimeoutError):
                # Dead or killed: a hung persistent worker must not pin
                # the deployment forever; the broker rebuilds it cold.
                self._dead = True
                raise

    def _call_inline(self, message) -> Dict[str, Any]:
        try:
            return _session_serve(self._deployer, self._session, message)
        except Exception:
            raise WorkerError(traceback.format_exc(limit=6)) from None


def _session_serve(deployer: IncrementalDeployer, session,
                   message) -> Dict[str, Any]:
    """Execute one session-worker command against a deployer+session."""
    op = message[0]
    if op == "preview":
        _op, request, time_limit = message
        return delta_task(deployer, request, time_limit)
    if op == "commit":
        _op, request, placed_wire = message
        placed = {key: frozenset(switches)
                  for key, switches in placed_wire.items()}
        return {"total_installed": commit_delta(deployer, request, placed)}
    if op == "remove":
        deployer.remove_policy(message[1])
        return {"total_installed": deployer.total_installed()}
    if op == "stats":
        return {"session": session.telemetry(),
                "total_installed": deployer.total_installed()}
    raise ValueError(f"unknown session worker op {op!r}")


def _session_child_main(conn, deployer: IncrementalDeployer) -> None:
    """Child entry point: hold the session, answer until shutdown."""
    session = SolverSession()
    deployer.attach_session(session)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] == "shutdown":
            reply(conn, dict)
            return
        reply(conn, _session_serve, deployer, session, message)
