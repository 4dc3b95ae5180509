"""The asyncio NDJSON front-end and prompt server shutdown.

The front-end's contract: the NDJSON protocol (one answer per line,
BAD_REQUEST on a malformed line without dropping the connection), many
*idle* connections held cheaply, and loop-native shutdown that completes
promptly whether or not a client ever connected, and that leaves no
client waiting: each gets its answer or EOF.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import io as repro_io
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.service import (
    AsyncFrontend,
    PlacementService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.protocol import DeltaRequest, PingRequest, SolveRequest


@pytest.fixture(scope="module")
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=6, rules_per_policy=5, seed=11,
    ))


@pytest.fixture
def service():
    svc = PlacementService(ServiceConfig(
        executor="inline", dispatchers=2, max_workers=2,
    ))
    yield svc
    svc.close()


@pytest.fixture
def frontend(service):
    fe = AsyncFrontend(service)
    fe.start()
    yield fe
    fe.shutdown()


def _raw_roundtrip(address, payload: bytes) -> dict:
    with socket.create_connection(address, timeout=10.0) as conn:
        conn.sendall(payload)
        line = conn.makefile("r", encoding="utf-8").readline()
    return json.loads(line)


class TestProtocolCompatibility:
    def test_ping_solve_cache(self, frontend, instance):
        host, port = frontend.address
        with ServiceClient(host=host, port=port, retries=1) as client:
            assert client.ping().result["pong"] is True
            first = client.call(SolveRequest(instance=instance))
            assert first.ok and first.served == "solved"
            again = client.call(SolveRequest(instance=instance))
            assert again.ok and again.served == "cache"

    def test_malformed_line_keeps_connection(self, frontend):
        host, port = frontend.address
        with socket.create_connection((host, port), timeout=10.0) as conn:
            reader = conn.makefile("r", encoding="utf-8")
            conn.sendall(b"this is not json\n")
            bad = json.loads(reader.readline())
            assert bad["status"] == "bad_request"
            # Valid JSON, wrong type for the instance: still an answer.
            conn.sendall(
                b'{"kind":"solve","instance":[],"request_id":"rq-3"}\n')
            bad = json.loads(reader.readline())
            assert bad["status"] == "bad_request"
            assert bad["request_id"] == "rq-3"
            # Same connection still serves the next, valid request.
            conn.sendall(b'{"kind":"ping"}\n')
            good = json.loads(reader.readline())
            assert good["status"] == "ok"

    def test_bad_request_echoes_request_id(self, frontend):
        answer = _raw_roundtrip(
            frontend.address,
            b'{"kind":"nope","request_id":"rq-7"}\n')
        assert answer["status"] == "bad_request"
        assert answer["request_id"] == "rq-7"

    def test_blank_lines_skipped(self, frontend):
        answer = _raw_roundtrip(frontend.address,
                                b"\n\n{\"kind\":\"ping\"}\n")
        assert answer["status"] == "ok"

    def test_oversized_line_refused(self, service):
        fe = AsyncFrontend(service, max_line_bytes=4096)
        fe.start()
        try:
            giant = b'{"kind":"ping","pad":"' + b"x" * 10000 + b'"}\n'
            answer = _raw_roundtrip(fe.address, giant)
            assert answer["status"] == "bad_request"
            assert "exceeds" in answer["error"]
        finally:
            fe.shutdown()


class TestMalformedFieldsKeepServing:
    """Malformed fields over TCP: every line is answered ``bad_request``
    with its ``request_id`` and the connection keeps serving.  At the
    fixture's two dispatchers, two deltas whose deadline was not a
    number used to kill both, leaving every later delta unanswered; a
    kind that was not a string dropped the connection and the request
    pipelined behind it."""

    def test_bad_deadlines_then_a_delta_commits(self, frontend, instance):
        host, port = frontend.address
        with ServiceClient(host=host, port=port, retries=1) as client:
            assert client.call(SolveRequest(instance=instance,
                                            deploy_as="prod")).ok
        delta = DeltaRequest(
            deployment="prod", op="modify",
            policy=repro_io.policy_to_dict(next(iter(instance.policies))),
        ).to_dict()
        with socket.create_connection((host, port), timeout=30.0) as conn:
            reader = conn.makefile("r", encoding="utf-8")
            conn.sendall(b"".join(
                json.dumps(dict(delta, deadline="soon",
                                request_id=f"soon-{n}")).encode() + b"\n"
                for n in range(2)))
            answers = [json.loads(reader.readline()) for _ in range(2)]
            assert sorted(a["request_id"] for a in answers) == [
                "soon-0", "soon-1"]
            assert all(a["status"] == "bad_request" for a in answers)
            conn.sendall(json.dumps(dict(delta, request_id="good"))
                         .encode() + b"\n")
            good = json.loads(reader.readline())
            assert good["request_id"] == "good"
            assert good["status"] == "ok", good.get("error")
            assert good["result"]["op"] == "modify"

    def test_non_string_kind_keeps_the_connection(self, frontend):
        with socket.create_connection(frontend.address,
                                      timeout=10.0) as conn:
            reader = conn.makefile("r", encoding="utf-8")
            for n, kind in enumerate(([], {}, 1, None)):
                conn.sendall(json.dumps(
                    {"kind": kind, "request_id": f"kind-{n}"}).encode()
                    + b'\n{"kind":"ping","request_id":"behind"}\n')
                answers = {}
                for _ in range(2):
                    answer = json.loads(reader.readline())
                    answers[answer["request_id"]] = answer["status"]
                assert answers == {f"kind-{n}": "bad_request",
                                   "behind": "ok"}


class TestConcurrency:
    def test_many_idle_connections_stay_cheap(self, frontend):
        """Park 150 idle connections; an active client must still get
        prompt answers (the event loop doesn't burn a thread each)."""
        host, port = frontend.address
        idle = [socket.create_connection((host, port), timeout=10.0)
                for _ in range(150)]
        try:
            deadline_probe = ServiceClient(host=host, port=port, retries=1)
            with deadline_probe:
                latencies = []
                for _ in range(20):
                    begun = time.perf_counter()
                    assert deadline_probe.ping().ok
                    latencies.append(time.perf_counter() - begun)
            assert sorted(latencies)[len(latencies) // 2] < 0.5
            assert frontend.backend.metrics.gauge(
                "frontend_connections").value >= 150
        finally:
            for conn in idle:
                conn.close()

    def test_concurrent_clients(self, frontend, instance):
        host, port = frontend.address
        failures = []

        def worker() -> None:
            try:
                with ServiceClient(host=host, port=port,
                                   retries=1) as client:
                    for _ in range(5):
                        assert client.ping().ok
                    response = client.call(SolveRequest(instance=instance))
                    assert response.ok
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


class TestShutdown:
    def test_prompt_shutdown_with_zero_traffic(self, service):
        fe = AsyncFrontend(service)
        fe.start()
        begun = time.perf_counter()
        fe.shutdown()
        assert time.perf_counter() - begun < 2.0

    def test_shutdown_is_idempotent(self, service):
        fe = AsyncFrontend(service)
        fe.start()
        fe.shutdown()
        fe.shutdown()  # second call is a no-op, not an error

    def test_inflight_request_answered_during_drain(self, service,
                                                    instance):
        fe = AsyncFrontend(service)
        fe.start()
        host, port = fe.address
        responses = []

        def slow_call() -> None:
            with ServiceClient(host=host, port=port, retries=0) as client:
                responses.append(client.call(SolveRequest(
                    instance=instance)))

        thread = threading.Thread(target=slow_call)
        thread.start()
        time.sleep(0.1)  # let the request reach the broker
        fe.shutdown(drain=True, drain_timeout=30.0)
        thread.join(timeout=30.0)
        assert responses and responses[0].ok

    def test_no_client_stranded_by_shutdown(self, service):
        """Clients connecting while ``shutdown(drain=True)`` runs get an
        answer or EOF, never silence.  A socket accepted in the same
        loop step as the stop used to stay open, its request unread,
        until a cyclic garbage collection, so its client waited out its
        own timeout."""
        stranded: list = []
        for _ in range(30):
            fe = AsyncFrontend(service)
            fe.start()
            clients = [threading.Thread(target=_ping_or_eof,
                                        args=(fe.address, stranded))
                       for _ in range(4)]
            for client in clients:
                client.start()
            fe.shutdown(drain=True)
            for client in clients:
                client.join(timeout=10.0)
                assert not client.is_alive()
        assert not stranded, f"{len(stranded)} client(s) got no answer"

    def test_every_request_read_during_a_drain_is_answered(self, service):
        """Clients keep pinging on open connections while
        ``shutdown(drain=True)`` runs: every request the backend got is
        answered.  The drain used to wait only until nothing was in
        flight, then cut connections that had read one more request in
        the meantime -- a commit could be applied and its answer lost."""
        for _ in range(20):
            backend = _Counting(service)
            fe = AsyncFrontend(backend)
            fe.start()
            answers: list = []
            clients = [threading.Thread(target=_ping_until_closed,
                                        args=(fe.address, answers))
                       for _ in range(8)]
            for client in clients:
                client.start()
            deadline = time.monotonic() + 10.0
            while len(answers) < 40 and time.monotonic() < deadline:
                time.sleep(0.001)
            fe.shutdown(drain=True)
            for client in clients:
                client.join(timeout=10.0)
                assert not client.is_alive()
            assert backend.submitted == len(answers)

    def test_port_is_the_bound_port(self, service):
        fe = AsyncFrontend(service, port=0)
        assert fe.port == 0
        fe.start()
        try:
            assert fe.port == fe.address[1] != 0
            with ServiceClient(port=fe.port, retries=0) as client:
                assert client.ping().ok
        finally:
            fe.shutdown()


class _Counting:
    """A backend that counts the requests it is handed."""

    def __init__(self, service) -> None:
        self.service = service
        self.submitted = 0

    def submit(self, request):
        self.submitted += 1  # only ever called on the event loop
        return self.service.submit(request)


def _ping_until_closed(address, answers: list) -> None:
    """Ping in a loop on one connection until the server closes it."""
    try:
        with socket.create_connection(address, timeout=10.0) as conn:
            reader = conn.makefile("rb")
            while True:
                conn.sendall(b'{"kind":"ping"}\n')
                if not reader.readline():
                    return
                answers.append(1)
    except OSError:
        pass


def _ping_or_eof(address, stranded: list) -> None:
    """One ping on a fresh connection.  An answer, EOF, a refused or a
    reset connection all end it; only silence past the timeout is a
    stranded client."""
    try:
        with socket.create_connection(address, timeout=3.0) as conn:
            conn.sendall(b'{"kind":"ping"}\n')
            conn.recv(1)
    except socket.timeout:
        stranded.append(address)
    except OSError:
        pass


class TestBackendMetrics:
    def test_frontend_counters(self, frontend):
        host, port = frontend.address
        with ServiceClient(host=host, port=port, retries=1) as client:
            client.ping()
            client.ping()
        _raw_roundtrip((host, port), b"garbage\n")
        metrics = frontend.backend.metrics
        assert metrics.counter("frontend_requests_total").value >= 3
        assert metrics.counter("frontend_bad_lines_total").value >= 1
