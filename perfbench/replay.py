"""In-process replay of the daemon's request paths, in spans.

:class:`Replay` makes, in the daemon's order, the public calls one
request makes on its way through the service: the client's and the
front-end's wire codec, the broker's digest and result cache, the task
the worker runs, the commit, the state digest, the journal and the
response codec.  What the daemon runs in a forked worker runs inline
here, and the fork is measured beside it: ``workers.fork`` is
``WorkerPool("process").run`` of a task that returns the real payload,
minus the same task run inline.  Warm-session deltas measure the
session worker's pipe the same way (``workers.session_rtt``).

Nothing here runs while the daemon is being measured.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro import io as repro_io
from repro.core.depgraph import build_dependency_graph, clear_depgraph_cache
from repro.core.incremental import IncrementalDeployer
from repro.core.instance import PlacementInstance
from repro.core.objectives import TotalRules
from repro.core.placement import Placement, PlacerConfig, RulePlacer
from repro.core.slicing import build_slices
from repro.core.verify import verify_placement
from repro.milp.model import SolveStatus
from repro.net.routing import Routing
from repro.policy.policy import PolicySet
from repro.service.cache import ResultCache
from repro.service.journal import Journal
from repro.service.protocol import (
    DeltaRequest,
    Response,
    ResponseStatus,
    SolveRequest,
    VerifyRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.workers import SessionWorker, WorkerPool, commit_delta
from repro.solve.components import split_components
from repro.solve.portfolio import resolve_backend
from repro.traffic.cache import LocalChurnDriver

#: Generous bound on one forked task; a replay that hits it is broken.
_TASK_TIMEOUT = 120.0


def echo(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The forked task of a fork measurement: hand the payload back."""
    return payload


def empty_base(instance: PlacementInstance) -> Placement:
    """The churn loop's starting point: the network, nothing deployed."""
    boot = PlacementInstance(instance.topology, instance.routing,
                             PolicySet(), dict(instance.capacities))
    return Placement(instance=boot, status=SolveStatus.FEASIBLE, placed={})


def _placed(entries: List[Dict[str, Any]]):
    return {(e["ingress"], e["priority"]): frozenset(e["switches"])
            for e in entries}


def _wire_placed(placed) -> List[Dict[str, Any]]:
    return [{"ingress": key[0], "priority": key[1],
             "switches": sorted(switches)}
            for key, switches in sorted(placed.items())]


def _snapshot_state(name: str, deployer: IncrementalDeployer
                    ) -> Dict[str, Any]:
    """The broker's compaction snapshot of a one-deployment daemon."""
    placement = deployer.as_placement()
    return {
        "deployments": [{
            "name": name,
            "instance": repro_io.instance_to_dict(placement.instance),
            "placement": repro_io.placement_to_dict(placement),
            "session_desired": deployer.session is not None,
            "session_backend": "highs",
            "quarantined": False,
        }],
        "epochs": {"policy": 0, "topology": 0},
        "applied": [],
    }


class Replay:
    """The daemon's request paths, one public call per span."""

    def __init__(self, tracer, workdir: str) -> None:
        self.tracer = tracer
        self.pool = WorkerPool("process", max_workers=1)
        self.cache = ResultCache()
        self.journal = Journal(os.path.join(workdir, "replay-journal"),
                               durability="fsync")
        self.journal.recover()
        #: Per-request sizes and counts, by per-layer metric name.
        self.sizes: Dict[str, List[float]] = defaultdict(list)
        #: Components each replayed solve split into (the daemon forks
        #: component solves when there are two or more).
        self.components: List[int] = []

    def close(self) -> None:
        self.journal.close()

    # ------------------------------------------------------------------
    # Wire, fork, journal
    # ------------------------------------------------------------------

    def _send(self, request):
        # ServiceClient stamps every request with an id before encoding.
        request.request_id = f"cli-{uuid.uuid4().hex}"
        with self.tracer.span("protocol.request_encode"):
            line = encode_request(request)
        self.sizes["protocol.request_bytes"].append(len(line) + 1)
        with self.tracer.span("protocol.request_decode"):
            return decode_request(line)

    def _answer(self, response: Response) -> None:
        response.seconds = 0.0
        with self.tracer.span("protocol.response_encode"):
            line = encode_response(response)
        self.sizes["protocol.response_bytes"].append(len(line) + 1)
        with self.tracer.span("protocol.response_decode"):
            decode_response(line)

    def _fork(self, payload: Dict[str, Any]) -> None:
        begun = time.perf_counter()
        self.pool.run(echo, payload, timeout=_TASK_TIMEOUT)
        forked = time.perf_counter() - begun
        begun = time.perf_counter()
        echo(payload)
        self.tracer.add("workers.fork",
                        forked - (time.perf_counter() - begun))

    def _journal(self, kind: str, data: Dict[str, Any], deployment: str,
                 deployer: IncrementalDeployer) -> None:
        with self.tracer.span("journal.commit"):
            self.journal.commit(kind, data)
            self.journal.maybe_snapshot(
                lambda: _snapshot_state(deployment, deployer))
        self.sizes["journal.record_bytes"].append(
            len(json.dumps(data, separators=(",", ":"), sort_keys=True)))

    def record_deploy(self, name: str, instance: PlacementInstance,
                      placement: Dict[str, Any], session: bool) -> None:
        """Journal, off the clock, the records the daemon wrote during
        set-up, so compaction snapshots fall where the daemon's do."""
        self.journal.commit("deploy", {
            "name": name, "instance": repro_io.instance_to_dict(instance),
            "placement": placement, "request_id": None})
        if session:
            self.journal.commit("session", {
                "deployment": name, "op": "attach", "backend": "highs",
                "request_id": None})

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------

    def solve(self, request: SolveRequest) -> Dict[str, Any]:
        """One cold solve, as ``Broker._run_solve`` + ``solve_task``."""
        span = self.tracer.span
        # The daemon's workers fork from a parent that never builds a
        # dependency graph itself, so every solve misses the memo.
        clear_depgraph_cache()
        with span("op"):
            request = self._send(request)
            with span("digest.cache_key"):
                key = request.cache_key()
            self.cache.get(key)
            payload = self._solve_task(request)
            self._fork(payload)
            status = (ResponseStatus.OK if payload["feasible"]
                      else ResponseStatus.INFEASIBLE)
            result = {field: payload[field] for field in
                      ("placement", "objective", "installed_rules", "summary")}
            # The broker derives the key a second time after the solve.
            with span("digest.cache_key"):
                key = request.cache_key()
            with span("cache.put"):
                self.cache.put(key, {"status": status, "result": result})
            self._answer(Response(status=status, kind="solve",
                                  request_id=request.request_id,
                                  result=result, served="solved",
                                  cache_key=key))
        return payload

    def _solve_task(self, request: SolveRequest) -> Dict[str, Any]:
        span = self.tracer.span
        instance = request.instance
        placer = RulePlacer(PlacerConfig(objective=TotalRules(),
                                         backend=request.backend))
        with span("depgraph.build"):
            graphs = {policy.ingress: build_dependency_graph(policy)
                      for policy in instance.policies}
        with span("slicing.build"):
            slices = build_slices(instance, graphs)
            self.components.append(len(split_components(instance, slices)))
        with span("ilp.encode"):
            encoding = placer.build(instance, depgraphs=graphs, slices=slices)
        self.sizes["ilp.variables"].append(encoding.model.num_variables())
        with span("milp.solve"):
            result = encoding.model.solve(resolve_backend(request.backend),
                                          time_limit=None)
        with span("placement.extract"):
            placement = RulePlacer.extract(encoding, result)
            summary = placement.summary()
        with span("io.placement_to_dict"):
            data = repro_io.placement_to_dict(placement)
        feasible = placement.is_feasible
        return {
            "placement": data,
            "feasible": feasible,
            "objective": placement.objective_value,
            "installed_rules": placement.total_installed() if feasible else 0,
            "summary": summary,
        }

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------

    def _preview(self, request: DeltaRequest, deployer: IncrementalDeployer
                 ) -> Dict[str, Any]:
        """``delta_task``: decode, then the deployer's greedy-then-sub-ILP
        preview, with the dependency graph built in its own span first."""
        span = self.tracer.span
        session = deployer.session
        with span(f"incremental.preview_{request.op}"):
            if request.op == "reroute":
                paths = repro_io.routing_from_dict(request.paths).paths(
                    request.ingress)
                result = deployer.preview_reroute(request.ingress, paths)
            else:
                policy = repro_io.policy_from_dict(request.policy)
                with span("depgraph.build"):
                    if session is not None:
                        session.depgraphs.get(policy)
                    else:
                        build_dependency_graph(policy)
                if request.op == "install":
                    paths = repro_io.routing_from_dict(request.paths).paths(
                        policy.ingress)
                    result = deployer.preview_install(policy, paths)
                else:
                    result = deployer.preview_modify(policy)
        return {
            "status": result.status.value,
            "method": result.method,
            "feasible": result.is_feasible,
            "seconds": result.seconds,
            "installed_rules": result.installed_rules,
            "solver_stats": dict(result.solver_stats or {}),
            "placed": _wire_placed(result.placed),
        }

    def _commit(self, request: DeltaRequest, deployer: IncrementalDeployer,
                payload: Dict[str, Any], deployment: str
                ) -> Tuple[Dict[str, Any], float]:
        """``apply_delta`` and its journal record; returns the result and
        the seconds the commit itself took."""
        span = self.tracer.span
        begun = time.perf_counter()
        with span("incremental.commit"):
            commit_delta(deployer, request, _placed(payload["placed"]))
        committed = time.perf_counter() - begun
        with span("incremental.state_digest"):
            digest = deployer.state_digest()
        result = {
            "op": request.op, "method": payload["method"],
            "installed_rules": payload["installed_rules"],
            "solve_seconds": payload["seconds"],
            "solver_stats": payload["solver_stats"],
            "total_installed": deployer.total_installed(),
            "state_digest": digest,
        }
        self._journal("delta", {"deployment": deployment,
                                "request": request.to_dict(),
                                "placed": payload["placed"]},
                      deployment, deployer)
        return result, committed

    def session_delta(self, request: DeltaRequest,
                      deployer: IncrementalDeployer, worker: SessionWorker,
                      deployment: str) -> Tuple[str, str]:
        """One delta served by a warm session worker; returns the state
        digest and the method that answered."""
        with self.tracer.span("op"):
            request = self._send(request)
            begun = time.perf_counter()
            payload = self._preview(request, deployer)
            inline = time.perf_counter() - begun
            begun = time.perf_counter()
            worker.preview(request, None, timeout=_TASK_TIMEOUT)
            rtt = time.perf_counter() - begun - inline
            result, committed = self._commit(request, deployer, payload,
                                             deployment)
            begun = time.perf_counter()
            worker.commit(request, _placed(payload["placed"]),
                          timeout=_TASK_TIMEOUT)
            rtt += time.perf_counter() - begun - committed
            self.tracer.add("workers.session_rtt", rtt)
            self._answer(Response(status=ResponseStatus.OK, kind="delta",
                                  request_id=request.request_id,
                                  served="session", result=result))
        return result["state_digest"], payload["method"]

    def pool_delta(self, request: DeltaRequest,
                   deployer: IncrementalDeployer, deployment: str) -> bool:
        """One delta without a session: a forked worker previews it (a
        remove is bookkeeping in the broker).  Returns feasibility."""
        span = self.tracer.span
        request = self._send(request)
        if request.op == "remove":
            with span("incremental.commit"):
                freed = deployer.remove_policy(request.ingress)
            with span("incremental.state_digest"):
                digest = deployer.state_digest()
            self._journal("remove", {"deployment": deployment,
                                     "ingress": request.ingress,
                                     "request_id": request.request_id},
                          deployment, deployer)
            self._answer(Response(
                status=ResponseStatus.OK, kind="delta",
                request_id=request.request_id, served="inline",
                result={"op": "remove", "freed_slots": freed,
                        "method": "bookkeeping",
                        "total_installed": deployer.total_installed(),
                        "state_digest": digest}))
            return True
        clear_depgraph_cache()
        payload = self._preview(request, deployer)
        self._fork(payload)
        if not payload["feasible"]:
            self._answer(Response(
                status=ResponseStatus.INFEASIBLE, kind="delta",
                request_id=request.request_id, served="solved",
                result={"op": request.op, "status": payload["status"],
                        "method": payload["method"],
                        "solve_seconds": payload["seconds"],
                        "solver_stats": payload["solver_stats"]}))
            return False
        result, _ = self._commit(request, deployer, payload, deployment)
        self._answer(Response(status=ResponseStatus.OK, kind="delta",
                              request_id=request.request_id,
                              served="solved", result=result))
        return True

    # ------------------------------------------------------------------
    # Verify
    # ------------------------------------------------------------------

    def verify(self, request: VerifyRequest) -> Tuple[bool, float]:
        """One verification, as ``Broker._run_verify`` + ``verify_task``;
        returns the verdict and the seconds ``verify_placement`` took."""
        span = self.tracer.span
        clear_depgraph_cache()
        with span("op"):
            request = self._send(request)
            with span("io.placement_from_dict"):
                placement = repro_io.placement_from_dict(request.placement,
                                                         request.instance)
            begun = time.perf_counter()
            with span("verify.placement"):
                report = verify_placement(placement)
            seconds = time.perf_counter() - begun
            payload = {"ok": report.ok, "errors": list(report.errors),
                       "paths_checked": report.paths_checked,
                       "switches_checked": report.switches_checked}
            self._fork(payload)
            self._answer(Response(status=ResponseStatus.OK, kind="verify",
                                  request_id=request.request_id,
                                  served="solved", result=payload))
        return report.ok, seconds


def churn_delta(deployment: str, ingress: str, cached_policy, paths,
                deployed: bool) -> Optional[DeltaRequest]:
    """The delta ``ServiceChurnDriver.apply`` sends for one ingress: a
    remove once its cached policy empties, an install while it is not
    deployed, a modify otherwise; ``None`` when there is nothing to do."""
    if cached_policy is None or not cached_policy.rules:
        if not deployed:
            return None
        return DeltaRequest(deployment=deployment, op="remove",
                            ingress=ingress)
    if not deployed:
        return DeltaRequest(
            deployment=deployment, op="install",
            policy=repro_io.policy_to_dict(cached_policy),
            paths=repro_io.routing_to_dict(Routing(paths)))
    return DeltaRequest(deployment=deployment, op="modify",
                        policy=repro_io.policy_to_dict(cached_policy))


class ReplayChurnDriver:
    """The churn driver of a replay: the request ``ServiceChurnDriver``
    would send, taken through :meth:`Replay.pool_delta` against a local
    deployer (the daemon serves churn without a session)."""

    def __init__(self, replay: Replay, deployer: IncrementalDeployer,
                 deployment: str) -> None:
        self.replay = replay
        self.deployer = deployer
        self.deployment = deployment
        self._local = LocalChurnDriver(deployer)

    def apply(self, ingress, cached_policy, paths) -> bool:
        request = churn_delta(self.deployment, ingress, cached_policy, paths,
                              self.deployer.has_policy(ingress))
        if request is None:
            return True
        return self.replay.pool_delta(request, self.deployer, self.deployment)

    def settle(self) -> None:
        """Nothing is deferred: the replay's deployer is the authority."""

    def placed_of(self, ingress: str):
        return self._local.placed_of(ingress)

    def as_placement(self) -> Placement:
        return self.deployer.as_placement()

    def state_digest(self) -> str:
        return self.deployer.state_digest()
