"""Crash recovery for session workers.

A session is an optimization, never a correctness or availability
dependency: killing the worker process that holds a live session must
cost only the worker and its depgraph memo.  The broker detects the
death, rebuilds the session from the authoritative deployer (which
lives in the broker, not the worker), and the next delta answers
correctly -- matching a session-less oracle replaying the same stream.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import io as repro_io
from repro.core.incremental import IncrementalDeployer
from repro.core.placement import RulePlacer
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.net.routing import Routing, ShortestPathRouter
from repro.policy.classbench import generate_policy_set
from repro.service import PlacementService, ServiceConfig
from repro.service.journal import Journal
from repro.service.protocol import (
    DeltaRequest,
    ResponseStatus,
    SessionRequest,
    SolveRequest,
)
from repro.service.workers import commit_delta


@pytest.fixture(scope="module")
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=6, rules_per_policy=5, seed=2,
    ))


def _free_ingress(instance):
    ports = [p.name for p in instance.topology.entry_ports]
    used = set(instance.policies.ingresses)
    return next(p for p in ports if p not in used), ports


def _delta_requests(instance, seed=50):
    """An install plus two reroute deltas on a free ingress."""
    free, ports = _free_ingress(instance)
    policy = generate_policy_set([free], rules_per_policy=4,
                                 seed=seed)[free]
    router = ShortestPathRouter(instance.topology, seed=4)
    paths_a = repro_io.routing_to_dict(
        Routing([router.shortest_path(free, ports[0])]))
    paths_b = repro_io.routing_to_dict(
        Routing([router.shortest_path(free, ports[1])]))
    return [
        DeltaRequest(deployment="prod", op="install", ingress=free,
                     policy=repro_io.policy_to_dict(policy),
                     paths=paths_a),
        DeltaRequest(deployment="prod", op="reroute", ingress=free,
                     paths=paths_b),
        DeltaRequest(deployment="prod", op="reroute", ingress=free,
                     paths=paths_a),
    ]


def _check_against_oracle(response, oracle_response):
    assert response.ok == oracle_response.ok
    if response.ok and oracle_response.ok:
        warm, cold = response.result, oracle_response.result
        if warm["method"] == "ilp" and cold["method"] == "ilp":
            assert warm["installed_rules"] == cold["installed_rules"]


def _session_worker(service, deployment="prod"):
    worker = service.broker._deployments[deployment].session
    assert worker is not None and worker.executor == "process"
    return worker


def _kill(worker) -> None:
    """SIGKILL the session worker's child and wait up to 5 s for it."""
    os.kill(worker.pid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while worker.alive and time.monotonic() < deadline:
        time.sleep(0.01)


@pytest.fixture
def forked_service(instance):
    with PlacementService(ServiceConfig(executor="process")) as svc:
        if svc.pool.executor != "process":  # pragma: no cover
            pytest.skip("fork unavailable on this platform")
        solved = svc.handle(SolveRequest(instance, deploy_as="prod"),
                            timeout=120.0)
        assert solved.ok
        yield svc


@pytest.fixture
def oracle(instance):
    """Cold-path inline service replaying the same stream (no session)."""
    with PlacementService(ServiceConfig(executor="inline")) as svc:
        solved = svc.handle(SolveRequest(instance, deploy_as="prod"),
                            timeout=120.0)
        assert solved.ok
        yield svc


class TestSessionCrashRecovery:
    def test_sigkill_mid_session_rebuilds_cold(self, forked_service,
                                               oracle, instance):
        """SIGKILL the worker holding the live session; the broker
        rebuilds it cold and every subsequent delta matches the
        cold-path oracle."""
        svc = forked_service
        attached = svc.handle(SessionRequest(deployment="prod",
                                             op="attach"), timeout=30.0)
        assert attached.ok and attached.result["attached"]
        deltas = _delta_requests(instance)

        first = svc.handle(deltas[0], timeout=120.0)
        assert first.ok and first.served == "session"
        _check_against_oracle(first, oracle.handle(deltas[0],
                                                   timeout=120.0))

        # Kill the live session worker the hard way.
        worker = _session_worker(svc)
        _kill(worker)
        assert not worker.alive

        # The next delta finds the corpse, rebuilds the session
        # from the authoritative deployer, and still answers.
        second = svc.handle(deltas[1], timeout=120.0)
        assert second.ok, second.error
        _check_against_oracle(second, oracle.handle(deltas[1],
                                                    timeout=120.0))
        rebuilds = svc.metrics.counter("session_rebuilds_total").value
        assert rebuilds >= 1

        # The rebuilt session keeps serving afterwards.
        third = svc.handle(deltas[2], timeout=120.0)
        assert third.ok and third.served == "session"
        _check_against_oracle(third, oracle.handle(deltas[2],
                                                   timeout=120.0))

        status = svc.handle(SessionRequest(deployment="prod", op="status"),
                            timeout=30.0)
        assert status.ok and status.result["attached"]

    def test_crash_during_preview_falls_back_to_pool(self, forked_service,
                                                     oracle, instance,
                                                     monkeypatch):
        """A delta_task that nukes the child mid-preview: the retry
        through a fresh (equally poisoned) session also dies, and the
        broker falls through to the per-request pool -- the request
        still gets a correct cold answer."""
        svc = forked_service
        import repro.service.workers as workers_mod

        def _crash_delta_task(deployer, request, time_limit=None):
            os._exit(43)

        # Patch BEFORE attach: the fork snapshots the poisoned module,
        # so the session child crashes on its first preview.  The
        # broker's own pool path binds the original function and is
        # unaffected.
        monkeypatch.setattr(workers_mod, "delta_task", _crash_delta_task)
        attached = svc.handle(SessionRequest(deployment="prod",
                                             op="attach"), timeout=30.0)
        assert attached.ok
        deltas = _delta_requests(instance, seed=51)

        first = svc.handle(deltas[0], timeout=120.0)
        assert first.ok, first.error
        assert first.served == "solved"  # pool path, not the session
        _check_against_oracle(first, oracle.handle(deltas[0],
                                                   timeout=120.0))
        assert svc.metrics.counter("session_rebuilds_total").value >= 2
        assert svc.metrics.counter("worker_crashes_total").value >= 1

        # Heal the module; the poisoned forks are gone, the latest
        # rebuild (made after the undo) serves again.
        monkeypatch.undo()
        second = svc.handle(deltas[1], timeout=120.0)
        assert second.ok, second.error
        assert second.served == "session"
        _check_against_oracle(second, oracle.handle(deltas[1],
                                                    timeout=120.0))

    def test_detach_after_crash_is_clean(self, forked_service, instance):
        svc = forked_service
        attached = svc.handle(SessionRequest(deployment="prod",
                                             op="attach"), timeout=30.0)
        assert attached.ok
        _kill(_session_worker(svc))

        status = svc.handle(SessionRequest(deployment="prod", op="status"),
                            timeout=30.0)
        assert status.ok and status.result["attached"] is False

        detached = svc.handle(SessionRequest(deployment="prod",
                                             op="detach"), timeout=30.0)
        assert detached.ok

    def test_unknown_deployment_session_op(self, forked_service):
        response = forked_service.handle(
            SessionRequest(deployment="nope", op="attach"), timeout=30.0)
        assert response.status == ResponseStatus.BAD_REQUEST


def _legacy_journal(directory, instance):
    """Write a journal the way daemons with a session ``backend`` knob
    did: the snapshot's deployment carries ``session_backend`` and the
    session records after it carry ``backend``.  Returns the deployment
    digest those daemons acknowledged last."""
    deployer = IncrementalDeployer(RulePlacer().place(instance))
    placement = deployer.as_placement()
    journal = Journal(directory, durability="flush")
    journal.recover()
    journal.commit("deploy", {
        "name": "prod", "instance": repro_io.instance_to_dict(instance),
        "placement": repro_io.placement_to_dict(placement),
        "request_id": None})
    journal.snapshot(lambda: {
        "deployments": [{
            "name": "prod",
            "instance": repro_io.instance_to_dict(placement.instance),
            "placement": repro_io.placement_to_dict(placement),
            "session_desired": True, "session_backend": "bnb",
            "quarantined": False}],
        "epochs": {"policy": 0, "topology": 0}, "applied": []})
    for op in ("detach", "attach"):
        journal.commit("session", {"deployment": "prod", "op": op,
                                   "backend": "bnb", "request_id": None})
    install = _delta_requests(instance)[0]
    result = deployer.preview_install(
        repro_io.policy_from_dict(install.policy),
        repro_io.paths_from_dict(install.paths))
    commit_delta(deployer, install, result.placed)
    journal.commit("delta", {
        "deployment": "prod", "request": install.to_dict(),
        "placed": [{"ingress": key[0], "priority": key[1],
                    "switches": sorted(switches)}
                   for key, switches in sorted(result.placed.items())]})
    journal.close()
    return deployer.state_digest()


class TestLegacyJournal:
    def test_session_backend_keys_are_ignored(self, instance, tmp_path):
        """A journal that still names a session backend recovers: the
        session re-attaches, serves the next delta, and the deployment
        is digest-identical to the one before the restart."""
        before = _legacy_journal(str(tmp_path), instance)
        with PlacementService(ServiceConfig(
                executor="process", journal_dir=str(tmp_path),
                durability="flush", supervise=False)) as svc:
            assert svc.last_recovery["sessions"] == 1
            assert svc.broker.deployment_digest("prod") == before
            status = svc.handle(SessionRequest(deployment="prod",
                                               op="status"), timeout=30.0)
            assert status.ok and status.result["attached"]
            reroute = _delta_requests(instance)[1]
            answer = svc.handle(reroute, timeout=120.0)
            assert answer.ok, answer.error
            assert answer.served == "session"
