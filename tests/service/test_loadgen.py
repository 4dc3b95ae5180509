"""The seeded load generator against one daemon, in process and over TCP.

One small workload runs twice: against a service in process, and
against a service behind the asyncio front-end.  Both runs must send
the same requests in every phase and show what the serving layer
promises: no failed request, a burst coalesced onto one solve, and warm
repeats answered from the cache.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.service import (
    AsyncFrontend,
    LoadgenConfig,
    PlacementService,
    ServiceConfig,
    run_loadgen,
)
from repro.service.protocol import MetricsRequest, SolveRequest

SMALL = LoadgenConfig(seed=3, unique_instances=2, repeats=2, deltas=2,
                      clients=2, burst=3, num_paths=6, rules_per_policy=6,
                      request_timeout=120.0)

REPORT_KEYS = {"totals", "latency_seconds", "warm_vs_cold", "coalescing",
               "cache", "counters", "phases"}


class _Recorder:
    """Forwards to a service and records every workload request."""

    def __init__(self, service: PlacementService) -> None:
        self.service = service
        self.metrics = service.metrics
        self.sent: dict = {}

    def submit(self, request):
        if not isinstance(request, MetricsRequest):
            phase = request.request_id.split("-", 1)[0]
            digest = (request.instance.digest()
                      if isinstance(request, SolveRequest) else None)
            self.sent.setdefault(phase, []).append(
                (request.kind, request.request_id, digest))
        return self.service.submit(request)

    def handle(self, request, timeout=None):
        return self.submit(request).result(timeout)


@pytest.fixture
def recorder():
    service = PlacementService(ServiceConfig(
        executor="inline", dispatchers=2, max_workers=2))
    yield _Recorder(service)
    service.close()


@pytest.fixture
def remote_recorder():
    service = PlacementService(ServiceConfig(
        executor="inline", dispatchers=2, max_workers=2))
    recording = _Recorder(service)
    frontend = AsyncFrontend(recording)
    frontend.start()
    yield recording, frontend
    frontend.shutdown(drain=False)
    service.close()


def _check_report(report) -> None:
    assert REPORT_KEYS <= set(report)
    assert report["totals"]["failures"] == 0, (
        report["totals"]["failure_statuses"])
    assert report["coalescing"]["solves_started"] == 1
    assert report["warm_vs_cold"]["warm_cache_hits"] > 0
    assert "cluster" not in report  # one daemon: responses carry no shard


class TestSingleDaemonLoadgen:
    def test_in_process_and_tcp_send_the_same_requests(
            self, recorder, remote_recorder):
        local = run_loadgen(SMALL, target=recorder)
        _check_report(local)
        assert "client" not in local

        remote, frontend = remote_recorder
        over_tcp = run_loadgen(
            replace(SMALL, address=f"127.0.0.1:{frontend.port}"))
        _check_report(over_tcp)
        assert over_tcp["client"]["clients"] >= 1

        assert set(recorder.sent) == {"cold", "warm", "burst", "delta"}
        for phase, requests in recorder.sent.items():
            assert sorted(requests) == sorted(remote.sent[phase]), phase
        assert {rid for _kind, rid, _digest in recorder.sent["delta"]} == {
            f"delta-loadgen-0-{op}-{index}"
            for op in ("install", "remove") for index in range(2)}
