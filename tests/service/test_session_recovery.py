"""Crash recovery for warm session workers.

The warm session is an optimization, never a correctness or
availability dependency: killing the worker process that holds a live
session must cost only the warm state.  The broker detects the death,
rebuilds the session cold from the authoritative deployer (which lives
in the broker, not the worker), and the next delta answers correctly
-- matching a cold-path oracle replaying the same stream.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import io as repro_io
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.net.routing import Routing, ShortestPathRouter
from repro.policy.classbench import generate_policy_set
from repro.service import PlacementService, ServiceConfig
from repro.service.protocol import (
    DeltaRequest,
    ResponseStatus,
    SessionRequest,
    SolveRequest,
)


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

        # The next delta finds the corpse, rebuilds the session cold
        # from the authoritative deployer, and still answers.
        second = svc.handle(deltas[1], timeout=120.0)
        assert second.ok, second.error
        _check_against_oracle(second, oracle.handle(deltas[1],
                                                    timeout=120.0))
        rebuilds = svc.metrics.counter("session_rebuilds_total").value
        assert rebuilds >= 1

        # The rebuilt session keeps serving warm afterwards.
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
        # rebuild (made after the undo) serves warm again.
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
