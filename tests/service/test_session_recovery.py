"""Session workers: one per deployment, and their crash recovery.

Every deployment gets its own persistent session worker once its
deploy is acked, and every install, reroute and modify previews there.
The worker is never a correctness dependency: killing it costs only the
worker and its depgraph memo.  The broker forks a fresh one from the
authoritative deployer (which lives in the broker, not the worker), and
the next delta answers correctly -- matching an oracle replaying the
same stream.
"""

from __future__ import annotations

import dataclasses
import json
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
    InvalidateRequest,
    ResponseStatus,
    SessionRequest,
    SolveRequest,
    VerifyRequest,
    decode_response,
)
from repro.service.workers import WorkerPool, commit_delta


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
    """Inline service replaying the same stream in process."""
    with PlacementService(ServiceConfig(executor="inline")) as svc:
        solved = svc.handle(SolveRequest(instance, deploy_as="prod"),
                            timeout=120.0)
        assert solved.ok
        yield svc


def _forks(service) -> float:
    return service.metrics.counter("sessions_attached_total").value


@pytest.mark.parametrize("executor", ["inline", "process"])
def test_every_delta_but_a_remove_is_served_by_the_worker(
        instance, executor, monkeypatch):
    """A fresh deployment, no attach: install, reroute and modify
    preview in the deployment's worker, a remove is bookkeeping, and
    the per-request pool sees only solves and verifies."""
    tasks = []
    run = WorkerPool.run

    def spy(pool, task, *args, **kwargs):
        tasks.append(task.__name__)
        return run(pool, task, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "run", spy)
    with PlacementService(ServiceConfig(executor=executor)) as svc:
        if svc.pool.executor != executor:  # pragma: no cover
            pytest.skip("fork unavailable on this platform")
        solved = svc.handle(SolveRequest(instance, deploy_as="prod"),
                            timeout=120.0)
        assert solved.ok
        assert svc.broker.session_health()["prod"]["alive"]
        install, reroute, _ = _delta_requests(instance)
        modify = DeltaRequest(
            deployment="prod", op="modify",
            policy=repro_io.policy_to_dict(next(iter(instance.policies))))
        remove = DeltaRequest(deployment="prod", op="remove",
                              ingress=install.ingress)
        answers = [svc.handle(request, timeout=120.0)
                   for request in (install, reroute, modify, remove)]
        assert all(answer.ok for answer in answers), answers
        assert [answer.served for answer in answers] == [
            "session", "session", "session", "inline"]
        verified = svc.handle(VerifyRequest(
            instance, placement=solved.result["placement"]), timeout=60.0)
        assert verified.ok and verified.result["ok"]
        assert _forks(svc) == 1
    assert set(tasks) == {"solve_task", "verify_task"}


class TestSessionCrashRecovery:
    def test_sigkill_mid_session_rebuilds_cold(self, forked_service,
                                               oracle, instance):
        """SIGKILL the deployment's worker; the next delta forks a
        fresh one and every delta matches the in-process oracle."""
        svc = forked_service
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

    def test_preview_crash_is_worker_crashed(
            self, forked_service, oracle, instance, monkeypatch):
        """A preview that kills every worker answers ``worker_crashed``
        and leaves the deployment untouched and no worker behind, with
        one fork per failing delta.  Once the poison is gone, the next
        delta is served by a fresh worker."""
        svc = forked_service
        import repro.service.workers as workers_mod

        def _crash_delta_task(deployer, request, time_limit=None):
            os._exit(43)

        before = svc.broker.deployment_digest("prod")
        # Every worker forked from now on snapshots the poisoned module.
        monkeypatch.setattr(workers_mod, "delta_task", _crash_delta_task)
        _kill(_session_worker(svc))
        deltas = _delta_requests(instance, seed=51)

        # A dead worker: the delta forks one, which crashes.
        forks = _forks(svc)
        first = svc.handle(deltas[0], timeout=120.0)
        assert first.status == ResponseStatus.WORKER_CRASHED, first.error
        assert _forks(svc) == forks + 1
        assert svc.broker.session_health()["prod"]["attached"] is False

        # A live worker that crashes is retried once on a fresh fork.
        assert svc.broker.ensure_worker("prod")
        forks = _forks(svc)
        second = svc.handle(deltas[0], timeout=120.0)
        assert second.status == ResponseStatus.WORKER_CRASHED
        assert _forks(svc) == forks + 1
        assert svc.broker.session_health()["prod"]["attached"] is False
        assert svc.broker.deployment_digest("prod") == before
        assert svc.metrics.counter("worker_crashes_total").value >= 2

        monkeypatch.undo()
        healed = svc.handle(deltas[0], timeout=120.0)
        assert healed.ok, healed.error
        assert healed.served == "session"
        _check_against_oracle(healed, oracle.handle(deltas[0],
                                                    timeout=120.0))

    def test_detach_refused_delta_rebuilds(self, forked_service, instance):
        """``detach`` is gone; after a SIGKILL the next delta forks the
        deployment a fresh worker."""
        svc = forked_service
        _kill(_session_worker(svc))

        status = svc.handle(SessionRequest(deployment="prod", op="status"),
                            timeout=30.0)
        assert status.ok and status.result["attached"] is False

        detached = decode_response(svc.handle_line(json.dumps(
            {"kind": "session", "deployment": "prod", "op": "detach"})))
        assert detached.status == ResponseStatus.BAD_REQUEST

        answer = svc.handle(_delta_requests(instance)[0], timeout=120.0)
        assert answer.ok and answer.served == "session", answer.error
        assert _session_worker(svc).alive

    def test_dead_idle_worker_is_healthy_and_next_delta_forks(
            self, forked_service, instance):
        """Nothing restarts an idle deployment's dead worker: ``health``
        lists it in ``dead_sessions`` and stays healthy, because the
        next delta forks a fresh worker, and that delta lands on the
        same digest as a shadow deployer replaying it."""
        svc = forked_service
        shadow = IncrementalDeployer(
            svc.broker.deployment_deployer("prod").as_placement())
        _kill(_session_worker(svc))
        health = svc.health()
        assert health["healthy"] is True
        assert health["dead_sessions"] == ["prod"]
        assert health["sessions"]["prod"]["alive"] is False
        assert svc.health(deep=True)["healthy"] is True

        install = _delta_requests(instance)[0]
        answer = svc.handle(install, timeout=120.0)
        assert answer.ok and answer.served == "session", answer.error
        shadow.install_policy(repro_io.policy_from_dict(install.policy),
                              repro_io.paths_from_dict(install.paths))
        assert answer.result["state_digest"] == shadow.state_digest()
        assert "dead_sessions" not in svc.health()

    def test_unanswered_deep_probe_is_unhealthy(self, forked_service,
                                                instance):
        """A worker that looks alive but does not answer still fails a
        deep probe, which drops it; the next delta forks a fresh one."""
        svc = forked_service
        pid = _session_worker(svc).pid
        os.kill(pid, signal.SIGSTOP)
        try:
            assert svc.health()["healthy"] is True
            deep = svc.health(deep=True)
        finally:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:  # the probe already killed it
                pass
        assert deep["healthy"] is False
        assert deep["session_probes"] == {"prod": False}
        answer = svc.handle(_delta_requests(instance)[0], timeout=120.0)
        assert answer.ok and answer.served == "session", answer.error

    def test_unknown_deployment_session_op(self, forked_service):
        response = forked_service.handle(
            SessionRequest(deployment="nope", op="attach"), timeout=30.0)
        assert response.status == ResponseStatus.BAD_REQUEST


def _legacy_journal(directory, instance):
    """Write a journal the way older daemons did: the snapshot carries
    cache ``epochs`` and its deployment ``session_backend`` and a
    ``quarantined`` flag, and an ``epoch`` record and session records
    carrying ``backend`` follow it.  Returns the deployment digest those
    daemons acknowledged last."""
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
            "quarantined": True}],
        "epochs": {"policy": 2, "topology": 1}, "applied": []})
    journal.commit("epoch", {"scope": "all", "count": 1})
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
        """A journal that still names a session backend, a desired
        session, a ``quarantined`` flag, cache epochs and a ``detach``
        recovers: the deployment gets a worker, which serves the next
        delta, and is digest-identical to the one before the restart."""
        before = _legacy_journal(str(tmp_path), instance)
        with PlacementService(ServiceConfig(
                executor="process", journal_dir=str(tmp_path),
                durability="flush")) as svc:
            assert svc.last_recovery["sessions"] == 1
            assert svc.broker.deployment_digest("prod") == before
            status = svc.handle(SessionRequest(deployment="prod",
                                               op="status"), timeout=30.0)
            assert status.ok and status.result["attached"]
            reroute = _delta_requests(instance)[1]
            answer = svc.handle(reroute, timeout=120.0)
            assert answer.ok, answer.error
            assert answer.served == "session"


def _recover(directory):
    """What a restart would read back from ``directory``'s journal."""
    journal = Journal(directory, durability="flush")
    try:
        return journal.recover()
    finally:
        journal.close()


class TestDurableState:
    """The journal holds what a restart restores -- the deployments and
    the dedup table of acked requests -- and nothing else: the result
    cache and the session workers are rebuilt, not recovered."""

    @staticmethod
    def _config(directory, **kwargs) -> ServiceConfig:
        return ServiceConfig(executor="inline", journal_dir=str(directory),
                             durability="flush", **kwargs)

    def test_journal_holds_only_deploy_delta_remove(self, instance,
                                                    tmp_path):
        """``attach``, ``invalidate`` and ``status`` change nothing a
        restart needs, so they write no record."""
        install, reroute, _ = _delta_requests(instance)
        with PlacementService(self._config(tmp_path)) as svc:
            for request in (
                    SolveRequest(instance, deploy_as="prod"),
                    SessionRequest(deployment="prod", op="attach"),
                    InvalidateRequest(), install, reroute,
                    SessionRequest(deployment="prod", op="status"),
                    DeltaRequest(deployment="prod", op="remove",
                                 ingress=install.ingress)):
                answer = svc.handle(request, timeout=120.0)
                assert answer.ok, (request.kind, answer.error)
        recovered = _recover(str(tmp_path))
        assert recovered.snapshot is None
        assert [record.kind for record in recovered.records] == [
            "deploy", "delta", "delta", "remove"]

    def test_snapshot_holds_only_deployments_and_applied(self, instance,
                                                         tmp_path):
        install = dataclasses.replace(_delta_requests(instance)[0],
                                      request_id="install-1")
        with PlacementService(self._config(tmp_path,
                                           snapshot_every=2)) as svc:
            assert svc.handle(SolveRequest(instance, deploy_as="prod"),
                              timeout=120.0).ok
            assert svc.handle(install, timeout=120.0).ok
            for request in (SessionRequest(deployment="prod", op="attach"),
                            InvalidateRequest()):
                assert svc.handle(request, timeout=30.0).ok
        recovered = _recover(str(tmp_path))
        assert recovered.records == []
        state = recovered.snapshot
        assert set(state) - {"seq", "chain", "v"} == {"deployments",
                                                      "applied"}
        assert [sorted(spec) for spec in state["deployments"]] == [
            ["instance", "name", "placement"]]
        assert [request_id for request_id, _ in state["applied"]] == [
            "install-1"]

    def test_restart_restores_deployments_not_the_cache(self, instance,
                                                        tmp_path):
        install = dataclasses.replace(_delta_requests(instance)[0],
                                      request_id="install-1")
        with PlacementService(self._config(tmp_path)) as svc:
            assert svc.handle(SolveRequest(instance, deploy_as="prod"),
                              timeout=120.0).ok
            committed = svc.handle(install, timeout=120.0)
            assert committed.ok, committed.error
            assert svc.handle(SolveRequest(instance),
                              timeout=120.0).served == "cache"
            digest = svc.broker.deployment_digest("prod")
        with PlacementService(self._config(tmp_path)) as svc:
            assert svc.broker.deployment_digest("prod") == digest
            assert len(svc.cache) == 0
            assert svc.handle(SolveRequest(instance),
                              timeout=120.0).served == "solved"
            retry = svc.handle(install, timeout=120.0)
            assert retry.ok and retry.served == "replay"
            assert retry.result["state_digest"] == \
                committed.result["state_digest"] == digest
