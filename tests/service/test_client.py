"""The resilient client and the server's graceful drain.

Two promises under test, and their interaction:

* the client rides out connection loss and daemon restarts by
  reconnecting and retrying with the same ``request_id`` -- a commit
  acked after a retry is the *original* commit, replayed, never a
  double-apply;
* a drain -- ``AsyncFrontend.shutdown(drain=True)``, then the service
  drains and closes, as ``repro serve`` does on SIGTERM -- answers
  every request the front-end has read, and every ack it sends is
  durable: no acked-but-lost commits across the restart.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import io as repro_io
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.net.routing import Routing, ShortestPathRouter
from repro.policy.classbench import generate_policy_set
from repro.service import (
    AsyncFrontend,
    PlacementService,
    ServiceClient,
    ServiceConfig,
    ServiceUnavailable,
)
from repro.service.protocol import (
    DeltaRequest,
    PingRequest,
    SessionRequest,
    SolveRequest,
)


@pytest.fixture(scope="module")
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=6, rules_per_policy=5, seed=2,
    ))


def _install_request(instance, seed=70, request_id=None):
    ports = [p.name for p in instance.topology.entry_ports]
    used = set(instance.policies.ingresses)
    free = next(p for p in ports if p not in used)
    policy = generate_policy_set([free], rules_per_policy=4,
                                 seed=seed)[free]
    router = ShortestPathRouter(instance.topology, seed=4)
    paths = repro_io.routing_to_dict(
        Routing([router.shortest_path(free, ports[0])]))
    return DeltaRequest(deployment="prod", op="install", ingress=free,
                        policy=repro_io.policy_to_dict(policy),
                        paths=paths, request_id=request_id), free


def _reroutes(instance, free, count, start=0):
    ports = [p.name for p in instance.topology.entry_ports]
    router = ShortestPathRouter(instance.topology, seed=4)
    requests = []
    for index in range(count):
        egress = ports[(start + index) % len(ports)]
        if egress == free:
            egress = ports[(start + index + 1) % len(ports)]
        paths = repro_io.routing_to_dict(
            Routing([router.shortest_path(free, egress)]))
        requests.append(DeltaRequest(
            deployment="prod", op="reroute", ingress=free, paths=paths,
            request_id=f"rr-{start + index}"))
    return requests


def _stop(frontend, service, drain: bool) -> None:
    """Stop a daemon the way ``repro serve`` does: front-end first,
    then the service it fronts."""
    frontend.shutdown(drain=drain, drain_timeout=30.0)
    service.close(drain=drain, drain_timeout=30.0)


@pytest.fixture
def served(instance, tmp_path):
    """A journaled daemon on TCP with ``prod`` deployed."""
    service = PlacementService(ServiceConfig(
        executor="inline", journal_dir=str(tmp_path / "wal"),
        durability="flush"))
    solved = service.handle(SolveRequest(instance, deploy_as="prod"),
                            timeout=120.0)
    assert solved.ok
    server = AsyncFrontend(service)
    server.start()
    yield server, service, str(tmp_path / "wal")
    _stop(server, service, drain=False)


class TestClientBasics:
    def test_ping_health_ready(self, served):
        server, _service, _ = served
        with ServiceClient(port=server.port) as client:
            assert client.ping().ok
            health = client.health(deep=True)
            assert health.ok and health.result["healthy"]
            assert "prod" in health.result["state_digests"]
            ready = client.ready()
            assert ready.ok and ready.result["ready"]

    def test_stamps_request_id_once(self, served):
        server, _service, _ = served
        with ServiceClient(port=server.port) as client:
            request = PingRequest()
            assert request.request_id is None
            client.call(request)
            first_id = request.request_id
            assert first_id and first_id.startswith("cli-")
            client.call(request)
            assert request.request_id == first_id

    def test_unreachable_raises_service_unavailable(self):
        client = ServiceClient(port=1, retries=1, backoff_base=0.01,
                               connect_timeout=0.2)
        with pytest.raises(ServiceUnavailable):
            client.ping()

    def test_wait_ready_times_out_cleanly(self):
        client = ServiceClient(port=1, retries=0, backoff_base=0.01,
                               connect_timeout=0.1)
        with pytest.raises(ServiceUnavailable):
            client.wait_ready(timeout=0.5, interval=0.05)


class TestReconnectAndReplay:
    def test_retry_same_request_id_is_replay_not_reapply(self, served,
                                                         instance):
        server, service, _ = served
        with ServiceClient(port=server.port) as client:
            request, _free = _install_request(instance, request_id="once")
            first = client.call(request, timeout=60.0)
            assert first.ok and first.served != "replay"
            installed = first.result["total_installed"]
            again = client.call(request, timeout=60.0)
            assert again.ok and again.served == "replay"
            assert service.broker.deployment_digest("prod") \
                == first.result["state_digest"]
            assert again.result.get("total_installed",
                                    installed) == installed

    def test_client_survives_daemon_restart(self, served, instance):
        """Kill the daemon between two requests; the client reconnects
        to its replacement (same port, same journal) and the retried
        commit replays instead of double-applying."""
        server, service, journal_dir = served
        port = server.port
        client = ServiceClient(port=port, retries=8, backoff_base=0.05)
        request, _free = _install_request(instance, request_id="ride-out")
        first = client.call(request, timeout=60.0)
        assert first.ok

        _stop(server, service, drain=True)  # gone; acked state durable

        revived = PlacementService(ServiceConfig(
            executor="inline", journal_dir=journal_dir,
            durability="flush"))
        assert revived.last_recovery["deployments"] == 1
        replacement = AsyncFrontend(revived, port=port)
        replacement.start()
        try:
            again = client.call(request, timeout=60.0)
            assert again.ok and again.served == "replay"
            assert client.reconnects >= 0  # telemetry exists
            assert revived.broker.deployment_digest("prod") \
                == first.result["state_digest"]
        finally:
            client.close()
            _stop(replacement, revived, drain=False)


class TestDrain:
    def test_drain_refuses_new_work(self, served):
        server, service, _ = served
        service.broker._draining = True
        try:
            with ServiceClient(port=server.port) as client:
                ready = client.ready()
                assert ready.ok and not ready.result["ready"]
                assert ready.result["draining"]
        finally:
            service.broker._draining = False

    def test_no_acked_but_lost_commits_across_drain(self, served,
                                                    instance):
        """The regression the journal exists for: fire commits from
        client threads, drain the server mid-stream, then restart from
        the journal -- every commit a client saw acked must be present
        (dedup summary + digest) in the recovered daemon."""
        server, service, journal_dir = served
        install, free = _install_request(instance, request_id="drain-0")
        with ServiceClient(port=server.port) as client:
            assert client.call(install, timeout=60.0).ok
        requests = _reroutes(instance, free, 8)
        acked = []
        acked_lock = threading.Lock()

        def fire(request):
            try:
                with ServiceClient(port=server.port, retries=0) as cli:
                    response = cli.call(request, timeout=60.0)
            except (ServiceUnavailable, OSError):
                return  # refused/cut: fail-closed is allowed
            if response.ok:
                with acked_lock:
                    acked.append((request.request_id,
                                  response.result["state_digest"]))

        threads = [threading.Thread(target=fire, args=(request,))
                   for request in requests]
        admitted = service.metrics.counter("requests_delta_total")
        before = admitted.value
        for thread in threads[:4]:
            thread.start()
        # Drain once the broker has one of the first four commits: the
        # front-end closes connections it has not read from, so a
        # drain that wins every race acks nothing.
        deadline = time.monotonic() + 60.0
        while admitted.value == before and time.monotonic() < deadline:
            time.sleep(0.001)
        drainer = threading.Thread(
            target=lambda: _stop(server, service, drain=True))
        drainer.start()
        for thread in threads[4:]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        drainer.join(timeout=60.0)
        assert not drainer.is_alive()
        assert acked, "drain shed every request; nothing exercised"

        revived = PlacementService(ServiceConfig(
            executor="inline", journal_dir=journal_dir,
            durability="flush"))
        try:
            for request_id, _digest in acked:
                summary = revived.broker.applied_summary(request_id)
                assert summary is not None, \
                    f"acked commit {request_id} lost across drain"
            # The final acked digest is the recovered digest: deltas on
            # one deployment serialize, so the last ack wins.
            final_digests = {d for _rid, d in acked}
            assert revived.broker.deployment_digest("prod") \
                in final_digests
        finally:
            revived.close()
