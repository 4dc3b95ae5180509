"""Cluster serving benchmark: idle-connection capacity and shard
scaling, recorded to ``BENCH_pr8.json`` at the repo root.

This is the acceptance harness for the async front-end + sharded
cluster.  Two claims, each with a regression floor:

* **Idle capacity** -- the asyncio front-end holds 1,000 idle NDJSON
  connections while an active client's ping p95 stays at or under
  10 ms (one event loop, not one OS thread per parked socket).
* **Shard scaling** -- aggregate warm-delta throughput (persistent
  session workers, one per deployment, spread over shards by the
  consistent-hash router) scales 1 -> N shards at >= 0.75x the ideal
  factor.  The ideal is ``min(shards, cpu_cores)``: shard processes on
  a one-core box contend for the same core, and the bench must not
  pretend otherwise.

Tiers::

    (default)              # full: 1000 idle conns, 1 -> 4 shards
    REPRO_CLUSTER_QUICK=1  # CI: 200 idle conns, 1 -> 2 shards

A quick run merges into an existing full-tier ``BENCH_pr8.json`` under
the ``"quick"`` key instead of clobbering the committed numbers.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro import io as repro_io
from repro.core.incremental import IncrementalDeployer
from repro.core.placement import RulePlacer
from repro.experiments import ExperimentConfig, banner, build_instance
from repro.net.routing import Routing, ShortestPathRouter
from repro.service import (
    AsyncFrontend,
    LocalCluster,
    PlacementService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.protocol import DeltaRequest, SessionRequest

QUICK = os.environ.get("REPRO_CLUSTER_QUICK", "") not in ("", "0")
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pr8.json"

# -- idle-capacity tier knobs ------------------------------------------------
ASYNC_IDLE = 200 if QUICK else 1000
#: Ping p95 ceiling through the idle crowd.  No looser than the earlier
#: bound relative to a thread-per-connection server, max(2x, +10 ms) of
#: its 0.21 ms p95 at 200 connections: 10.2 ms.
P95_CEILING_MS = 10.0
PING_SAMPLES = 30

# -- scaling tier knobs ------------------------------------------------------
SHARD_POINTS = (1, 2) if QUICK else (1, 4)
DEPLOYMENTS = 3 if QUICK else 4
WARM_DELTAS = 6 if QUICK else 8
EFFICIENCY_FLOOR = 0.75
#: The 10k-rule operating point of the paper's incremental experiments
#: (16 ingresses x 625 rules); quick shrinks the instance, not the
#: protocol.
SCALE_CONFIG = (
    ExperimentConfig(seed=0, num_ingresses=4, rules_per_policy=150,
                     capacity=320)
    if QUICK else
    ExperimentConfig(seed=0, num_ingresses=16, rules_per_policy=625,
                     capacity=1200)
)


def _quantile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _latency_ms(samples: List[float]) -> Dict[str, float]:
    return {
        "p50_ms": _quantile(samples, 0.50) * 1e3,
        "p95_ms": _quantile(samples, 0.95) * 1e3,
        "max_ms": max(samples) * 1e3,
        "samples": len(samples),
    }


# ---------------------------------------------------------------------------
# Idle-connection capacity
# ---------------------------------------------------------------------------


def _park_and_ping(address, idle_count: int) -> Dict[str, Any]:
    """Open ``idle_count`` idle connections, then measure an active
    client's ping latency through the crowd."""
    host, port = address
    idle: List[socket.socket] = []
    try:
        for _ in range(idle_count):
            idle.append(socket.create_connection((host, port),
                                                 timeout=30.0))
        latencies: List[float] = []
        with ServiceClient(host=host, port=port, retries=1,
                           timeout=30.0) as client:
            client.ping()  # warm the connection
            for _ in range(PING_SAMPLES):
                begun = time.perf_counter()
                assert client.ping().ok
                latencies.append(time.perf_counter() - begun)
        return {"connections": idle_count, **_latency_ms(latencies)}
    finally:
        for conn in idle:
            try:
                conn.close()
            except OSError:
                pass


@pytest.fixture(scope="module")
def idle_report() -> Dict[str, Any]:
    with PlacementService(ServiceConfig(
            executor="inline", dispatchers=2, supervise=False)) as svc:
        frontend = AsyncFrontend(svc)
        frontend.start()
        try:
            asynchronous = _park_and_ping(frontend.address, ASYNC_IDLE)
        finally:
            frontend.shutdown(drain=False)
    return {"async": asynchronous, "p95_ceiling_ms": P95_CEILING_MS}


class TestIdleConnectionCapacity:
    def test_report_and_floor(self, idle_report):
        tier = "quick" if QUICK else "full"
        print(banner(f"Idle-connection capacity ({tier} tier)"))
        row = idle_report["async"]
        print(f"  async     idle={row['connections']:>5} "
              f"ping p50={row['p50_ms']:.2f}ms "
              f"p95={row['p95_ms']:.2f}ms "
              f"(ceiling {idle_report['p95_ceiling_ms']:.2f}ms)")
        assert row["connections"] == ASYNC_IDLE

    def test_async_p95_under_ceiling(self, idle_report):
        assert (idle_report["async"]["p95_ms"]
                <= idle_report["p95_ceiling_ms"]), (
            f"async front-end p95 "
            f"{idle_report['async']['p95_ms']:.2f}ms at "
            f"{idle_report['async']['connections']} idle connections "
            f"exceeds ceiling {idle_report['p95_ceiling_ms']:.2f}ms")


# ---------------------------------------------------------------------------
# Shard scaling (aggregate warm-delta throughput)
# ---------------------------------------------------------------------------


def _measure_cluster_throughput(shards: int, base,
                                instance) -> Dict[str, Any]:
    """Aggregate warm-delta throughput of an N-shard cluster.

    Deployments are registered straight into each ring-owner shard's
    broker from the pre-solved placement (the bench measures serving,
    not re-solving), each attaches a persistent session worker, and the
    sampled streams are steady-state template hits.
    """
    deployments = [f"bench-{i}" for i in range(DEPLOYMENTS)]
    ingress = instance.policies.ingresses[0]
    alt_router = ShortestPathRouter(instance.topology, seed=9)
    flip = [
        repro_io.routing_to_dict(
            alt_router.random_routing(2, ingresses=[ingress])),
        repro_io.routing_to_dict(Routing(instance.routing.paths(ingress))),
    ]

    with LocalCluster(shards=shards, probe_interval=0.5) as cluster:
        placement_by = {}
        for name in deployments:
            owner = cluster.router.ring.route(name)
            cluster.shards[owner].service.broker.register_deployment(
                name, IncrementalDeployer(base))
            placement_by.setdefault(owner, []).append(name)

        for name in deployments:
            attached = cluster.handle(SessionRequest(
                deployment=name, op="attach",
                request_id=f"{name}-attach"), timeout=600.0)
            assert attached.ok, attached.error
            # Prime both routings: the sampled stream below must be
            # template hits, not cold builds.
            for index in (0, 1):
                primed = cluster.handle(DeltaRequest(
                    deployment=name, op="reroute", ingress=ingress,
                    paths=flip[index],
                    request_id=f"{name}-prime-{index}"), timeout=600.0)
                assert primed.ok, primed.error

        errors: List[str] = []
        per_delta: Dict[str, List[float]] = {n: [] for n in deployments}

        def stream(name: str) -> None:
            for index in range(WARM_DELTAS):
                request = DeltaRequest(
                    deployment=name, op="reroute", ingress=ingress,
                    paths=flip[index % 2],
                    request_id=f"{name}-rr-{index}")
                begun = time.perf_counter()
                response = cluster.handle(request, timeout=600.0)
                per_delta[name].append(time.perf_counter() - begun)
                if not response.ok:
                    errors.append(f"{name}: {response.error}")
                    return

        threads = [threading.Thread(target=stream, args=(name,),
                                    name=f"bench-{name}")
                   for name in deployments]
        begun = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begun
        assert not errors, errors

    total = DEPLOYMENTS * WARM_DELTAS
    return {
        "shards": shards,
        "deployments_by_shard": {k: sorted(v) for k, v
                                 in sorted(placement_by.items())},
        "deltas": total,
        "wall_seconds": wall,
        "throughput_dps": total / wall,
        "delta_latency": _latency_ms(
            [s for samples in per_delta.values() for s in samples]),
    }


@pytest.fixture(scope="module")
def scaling_report() -> Dict[str, Any]:
    instance = build_instance(SCALE_CONFIG)
    base = RulePlacer().place(instance)
    assert base.is_feasible, "benchmark config must have a feasible base"

    points = {str(s): _measure_cluster_throughput(s, base, instance)
              for s in SHARD_POINTS}
    low, high = (str(SHARD_POINTS[0]), str(SHARD_POINTS[-1]))
    scaling = (points[high]["throughput_dps"]
               / points[low]["throughput_dps"])
    cores = os.cpu_count() or 1
    ideal = min(SHARD_POINTS[-1], max(1, cores))
    return {
        "config": {
            "num_ingresses": SCALE_CONFIG.num_ingresses,
            "rules_per_policy": SCALE_CONFIG.rules_per_policy,
            "capacity": SCALE_CONFIG.capacity,
            "total_rules": (SCALE_CONFIG.num_ingresses
                            * SCALE_CONFIG.rules_per_policy),
            "deployments": DEPLOYMENTS,
            "deltas_per_deployment": WARM_DELTAS,
            "cpu_cores": cores,
        },
        "points": points,
        "scaling_factor": scaling,
        "ideal_factor": ideal,
        "efficiency": scaling / ideal,
        "efficiency_floor": EFFICIENCY_FLOOR,
    }


class TestShardScaling:
    def test_report_and_record(self, idle_report, scaling_report):
        tier = "quick" if QUICK else "full"
        print(banner(f"Shard scaling ({tier} tier)"))
        config = scaling_report["config"]
        print(f"  instance={config['total_rules']} rules, "
              f"{config['deployments']} deployments x "
              f"{config['deltas_per_deployment']} warm deltas, "
              f"{config['cpu_cores']} cores")
        for shards, point in sorted(scaling_report["points"].items()):
            print(f"  shards={shards}: "
                  f"{point['throughput_dps']:.1f} deltas/s "
                  f"(p95={point['delta_latency']['p95_ms']:.1f}ms, "
                  f"wall={point['wall_seconds']:.2f}s)")
        print(f"  scaling={scaling_report['scaling_factor']:.2f}x "
              f"ideal={scaling_report['ideal_factor']}x "
              f"efficiency={scaling_report['efficiency']:.2f} "
              f"(floor {scaling_report['efficiency_floor']:.2f})")

        report = {"idle_capacity": idle_report,
                  "shard_scaling": scaling_report}
        existing: Dict = {}
        if BENCH_PATH.exists():
            existing = json.loads(BENCH_PATH.read_text())
        if QUICK and existing.get("tier") == "full":
            merged = dict(existing)
            merged["quick"] = report
        else:
            merged = {"tier": tier, **report}
        BENCH_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n")

    def test_scaling_efficiency_floor(self, scaling_report):
        """The PR's promise: aggregate warm-delta throughput reaches at
        least 0.75x the ideal scaling factor.  On a one-core box the
        ideal factor is 1, so the bound degrades to 'sharding costs at
        most 25%' -- still a real regression guard on router overhead.
        """
        assert (scaling_report["efficiency"]
                >= scaling_report["efficiency_floor"]), (
            f"scaling {scaling_report['scaling_factor']:.2f}x over "
            f"{SHARD_POINTS[0]} -> {SHARD_POINTS[-1]} shards is "
            f"{scaling_report['efficiency']:.2f} of the ideal "
            f"{scaling_report['ideal_factor']}x "
            f"(floor {scaling_report['efficiency_floor']:.2f})")

    def test_deployments_spread_when_sharded(self, scaling_report):
        """At the top shard point the ring must actually distribute the
        session workers (otherwise 'scaling' measures one shard)."""
        top = scaling_report["points"][str(SHARD_POINTS[-1])]
        assert len(top["deployments_by_shard"]) >= 2
