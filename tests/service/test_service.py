"""End-to-end daemon tests: the assembled service, both transports,
the full solve -> deploy -> delta -> verify lifecycle, and crash
isolation with real forked workers."""

from __future__ import annotations

import io
import json
import os
import socket

import pytest

from repro import __version__
from repro import io as repro_io
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.net.routing import Routing, ShortestPathRouter
from repro.policy.classbench import generate_policy_set
from repro.service import (
    AsyncFrontend,
    PlacementService,
    ServiceConfig,
)
from repro.service.daemon import serve_stdio
from repro.service.protocol import (
    DeltaRequest,
    InvalidateRequest,
    MetricsRequest,
    PingRequest,
    ResponseStatus,
    SolveRequest,
    VerifyRequest,
    decode_response,
    encode_request,
)


@pytest.fixture(scope="module")
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=6, rules_per_policy=5, seed=2,
    ))


@pytest.fixture
def service():
    with PlacementService(ServiceConfig(executor="inline")) as svc:
        yield svc


class TestControlPlane:
    def test_ping_answers_inline(self, service):
        response = service.handle(PingRequest(request_id="p1"), timeout=5.0)
        assert response.ok
        assert response.result["pong"] is True
        assert response.result["version"] == __version__
        assert response.request_id == "p1"

    def test_metrics_request(self, service, instance):
        service.handle(SolveRequest(instance), timeout=60.0)
        response = service.handle(MetricsRequest(), timeout=5.0)
        assert response.ok
        metrics = response.result["metrics"]
        assert metrics["counters"]["requests_solve_total"] == 1
        assert "cache" in metrics
        assert "# TYPE requests_solve_total counter" in \
            response.result["prometheus"]

    def test_invalidate_bumps_epochs_and_sweeps(self, service, instance):
        """``invalidate`` drops every cached result."""
        service.handle(SolveRequest(instance), timeout=60.0)
        assert len(service.cache) == 1
        response = service.handle(InvalidateRequest(), timeout=5.0)
        assert response.ok
        assert response.result == {"dropped": 1}
        assert len(service.cache) == 0
        # The next identical solve is a fresh miss, not a stale hit.
        again = service.handle(SolveRequest(instance), timeout=60.0)
        assert again.served == "solved"


class TestLifecycle:
    def test_solve_deploy_delta_verify(self, service, instance):
        solved = service.handle(
            SolveRequest(instance, deploy_as="prod"), timeout=60.0)
        assert solved.ok
        assert solved.result["deployed_as"] == "prod"
        assert service.broker.deployments() == ["prod"]

        # Install a new policy on a free ingress via the delta path.
        topo = instance.topology
        ports = [p.name for p in topo.entry_ports]
        used = set(instance.policies.ingresses)
        free = next(p for p in ports if p not in used)
        policy = generate_policy_set([free], rules_per_policy=4, seed=50)[free]
        router = ShortestPathRouter(topo, seed=4)
        paths = repro_io.routing_to_dict(
            Routing([router.shortest_path(free, ports[0])]))
        installed = service.handle(DeltaRequest(
            deployment="prod", op="install", ingress=free,
            policy=repro_io.policy_to_dict(policy), paths=paths,
        ), timeout=60.0)
        assert installed.ok
        assert installed.result["method"] in ("greedy", "ilp")

        # The live deployment verifies end to end.
        deployer = service.broker.deployment_deployer("prod")
        combined = deployer.as_placement()
        verified = service.handle(VerifyRequest(
            combined.instance, repro_io.placement_to_dict(combined),
        ), timeout=60.0)
        assert verified.ok
        assert verified.result["ok"] is True

        # And the policy can be removed again (pure bookkeeping).
        removed = service.handle(DeltaRequest(
            deployment="prod", op="remove", ingress=free,
        ), timeout=60.0)
        assert removed.ok
        assert removed.result["freed_slots"] > 0

    def test_cache_hit_on_repeat(self, service, instance):
        cold = service.handle(SolveRequest(instance), timeout=60.0)
        warm = service.handle(SolveRequest(instance), timeout=60.0)
        assert cold.served == "solved"
        assert warm.served == "cache"
        assert warm.result == cold.result


class TestWire:
    def test_handle_line_roundtrip(self, service, instance):
        answer = service.handle_line(encode_request(PingRequest(
            request_id="w1")))
        response = decode_response(answer)
        assert response.ok and response.request_id == "w1"

    def test_handle_line_bad_json_is_bad_request(self, service):
        response = decode_response(service.handle_line("{nope"))
        assert response.status == ResponseStatus.BAD_REQUEST

    def test_handle_line_unknown_kind_keeps_request_id(self, service):
        line = json.dumps({"kind": "frobnicate", "request_id": "x9"})
        response = decode_response(service.handle_line(line))
        assert response.status == ResponseStatus.BAD_REQUEST
        assert response.request_id == "x9"

    def test_serve_stdio(self, service):
        """``repro serve --stdio``: one answer line per request line, a
        malformed line answered BAD_REQUEST with its request_id, and a
        blank line skipped."""
        stdin = io.StringIO('{"kind":"ping","request_id":"s1"}\n'
                            '\n'
                            '{"kind":"nope","request_id":"s2"}\n')
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout) == 0
        answers = [decode_response(line)
                   for line in stdout.getvalue().splitlines()]
        assert [answer.request_id for answer in answers] == ["s1", "s2"]
        assert answers[0].ok and answers[0].result["pong"] is True
        assert answers[1].status == ResponseStatus.BAD_REQUEST

    def test_tcp_server_roundtrip(self, instance):
        with PlacementService(ServiceConfig(executor="inline")) as svc:
            frontend = AsyncFrontend(svc, port=0)
            frontend.start()
            try:
                with socket.create_connection(
                        ("127.0.0.1", frontend.port), timeout=10.0) as conn:
                    reader = conn.makefile("r", encoding="utf-8")
                    for request in (PingRequest(request_id="a"),
                                    SolveRequest(instance, request_id="b"),
                                    SolveRequest(instance, request_id="c")):
                        conn.sendall(
                            (encode_request(request) + "\n").encode())
                    ping = decode_response(reader.readline())
                    cold = decode_response(reader.readline())
                    warm = decode_response(reader.readline())
            finally:
                frontend.shutdown()
        assert ping.ok and ping.request_id == "a"
        assert cold.ok and cold.served == "solved"
        assert warm.ok and warm.served == "cache"


def _crash_solve_task(request, time_limit=None):
    os._exit(31)


class TestCrashIsolation:
    def test_crashed_worker_fails_only_its_request(self, instance,
                                                   monkeypatch):
        """The ISSUE's acceptance scenario with real forked workers: a
        deliberately crashed solve answers WORKER_CRASHED for itself,
        and the daemon keeps serving the next request."""
        with PlacementService(ServiceConfig(executor="process")) as svc:
            if svc.pool.executor != "process":  # pragma: no cover
                pytest.skip("fork unavailable on this platform")
            import repro.service.broker as broker_mod

            monkeypatch.setattr(broker_mod, "solve_task", _crash_solve_task)
            crashed = svc.handle(SolveRequest(instance), timeout=60.0)
            assert crashed.status == ResponseStatus.WORKER_CRASHED
            monkeypatch.undo()
            healthy = svc.handle(SolveRequest(instance), timeout=120.0)
            assert healthy.ok
            assert healthy.served == "solved"
            assert svc.metrics.counter("worker_crashes_total").value == 1
