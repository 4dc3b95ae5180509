"""The consistent-hash cluster router.

Routing affinity (same key, same shard -- that is what keeps the
per-shard caches hot), sticky deployment homes, fail-open rerouting
with catalog re-deploy when a shard dies, aggregated control-plane
verbs, and the remote-shard adapter over real TCP daemons.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.generators import ExperimentConfig, build_instance
from repro.net.routing import Routing, ShortestPathRouter
from repro.policy.classbench import generate_policy_set
from repro import io as repro_io
from repro.service import (
    AsyncFrontend,
    ClusterRouter,
    LocalCluster,
    PlacementService,
    RemoteShard,
    ServiceConfig,
)
from repro.service.protocol import (
    DeltaRequest,
    HealthRequest,
    MetricsRequest,
    PingRequest,
    ReadyRequest,
    SolveRequest,
)


@pytest.fixture(scope="module")
def instances():
    return [build_instance(ExperimentConfig(
        k=4, num_paths=6, rules_per_policy=5, seed=20 + i,
    )) for i in range(4)]


@pytest.fixture
def cluster():
    with LocalCluster(shards=3, probe_interval=0.15) as cl:
        yield cl


def _install_request(instance, deployment, request_id):
    ports = [p.name for p in instance.topology.entry_ports]
    used = set(instance.policies.ingresses)
    free = next(p for p in ports if p not in used)
    policy = generate_policy_set([free], rules_per_policy=4,
                                 seed=77)[free]
    router = ShortestPathRouter(instance.topology, seed=0)
    paths = repro_io.routing_to_dict(
        Routing([router.shortest_path(free, ports[0])]))
    return DeltaRequest(
        deployment=deployment, op="install", ingress=free,
        policy=repro_io.policy_to_dict(policy), paths=paths,
        request_id=request_id,
    )


class TestAffinity:
    def test_same_digest_same_shard_and_cache_hit(self, cluster,
                                                  instances):
        for instance in instances:
            first = cluster.handle(SolveRequest(instance=instance))
            assert first.ok
            again = cluster.handle(SolveRequest(instance=instance))
            assert again.ok
            assert again.shard == first.shard
            assert again.served == "cache"

    def test_distinct_digests_spread_over_shards(self, cluster,
                                                 instances):
        shards = {cluster.handle(SolveRequest(instance=i)).shard
                  for i in instances}
        # 4 digests over 3 shards: in practice at least two distinct
        # shards; the exact spread is the hash's business.
        assert len(shards) >= 2

    def test_deltas_follow_the_deployment_home(self, cluster,
                                               instances):
        deploy = cluster.handle(SolveRequest(
            instance=instances[0], deploy_as="dep-sticky",
            request_id="deploy-1"))
        assert deploy.ok
        home = deploy.shard
        for index in range(3):
            request = _install_request(instances[0], "dep-sticky",
                                       f"ins-{index}")
            request.op = "install" if index == 0 else "modify"
            if index:
                request.paths = None
            response = cluster.handle(request)
            assert response.ok, response.error
            assert response.shard == home


class TestFailover:
    def test_kill_home_shard_reroutes_and_redeploys(self, cluster,
                                                    instances):
        deploy = cluster.handle(SolveRequest(
            instance=instances[1], deploy_as="dep-failover",
            request_id="deploy-f"))
        assert deploy.ok
        home = deploy.shard
        cluster.kill(home)
        response = cluster.handle(_install_request(
            instances[1], "dep-failover", "ins-after-kill"))
        assert response.ok, response.error
        assert response.shard != home
        router_metrics = cluster.router.metrics
        assert router_metrics.counter("router_failovers_total").value >= 1
        assert router_metrics.counter("router_redeploys_total").value >= 1

    def test_home_stays_on_successor_after_rejoin(self, cluster,
                                                  instances):
        deploy = cluster.handle(SolveRequest(
            instance=instances[2], deploy_as="dep-sticky2",
            request_id="deploy-s2"))
        home = deploy.shard
        cluster.kill(home)
        moved = cluster.handle(_install_request(
            instances[2], "dep-sticky2", "ins-moved"))
        assert moved.ok and moved.shard != home
        successor = moved.shard
        cluster.revive(home)
        deadline = time.monotonic() + 10.0
        while (home not in cluster.router.live_shards()
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert home in cluster.router.live_shards()
        # The successor owns deltas the original never saw; the home
        # must not snap back.
        installed = _install_request(instances[2], "dep-sticky2",
                                     "probe").ingress
        follow_up = cluster.handle(DeltaRequest(
            deployment="dep-sticky2", op="remove", ingress=installed,
            request_id="rm-after-rejoin"))
        assert follow_up.ok, follow_up.error
        assert follow_up.shard == successor

    def test_stateless_solve_fails_over(self, cluster, instances):
        first = cluster.handle(SolveRequest(instance=instances[3]))
        assert first.ok
        cluster.kill(first.shard)
        again = cluster.handle(SolveRequest(instance=instances[3]))
        assert again.ok
        assert again.shard != first.shard

    def test_no_live_shard_is_an_error(self, instances):
        with LocalCluster(shards=2, probe_interval=0.1) as cl:
            cl.kill("shard-0")
            cl.kill("shard-1")
            response = cl.handle(SolveRequest(instance=instances[0]))
            assert not response.ok
            assert "no live shard" in (response.error or "")


class TestAggregation:
    def test_ping_reports_all_shards(self, cluster):
        response = cluster.handle(PingRequest())
        assert response.ok and response.result["pong"] is True
        assert sorted(response.result["shards"]) == [
            "shard-0", "shard-1", "shard-2"]

    def test_ready_fails_open(self, cluster):
        assert cluster.handle(ReadyRequest()).result["ready"] is True
        cluster.kill("shard-1")
        deadline = time.monotonic() + 10.0
        while ("shard-1" in cluster.router.live_shards()
               and time.monotonic() < deadline):
            time.sleep(0.05)
        response = cluster.handle(ReadyRequest())
        assert response.result["ready"] is True  # 2 of 3 still serve
        assert "shard-1" in response.result["down"]

    def test_health_aggregates_and_flags_down_shards(self, cluster):
        healthy = cluster.handle(HealthRequest())
        assert healthy.result["healthy"] is True
        assert healthy.result["live_shards"] == 3
        cluster.kill("shard-2")
        deadline = time.monotonic() + 10.0
        while ("shard-2" in cluster.router.live_shards()
               and time.monotonic() < deadline):
            time.sleep(0.05)
        degraded = cluster.handle(HealthRequest())
        assert degraded.result["healthy"] is False
        assert "shard-2" in degraded.result["down"]

    def test_metrics_aggregates_counters(self, cluster, instances):
        for instance in instances[:2]:
            assert cluster.handle(SolveRequest(instance=instance)).ok
        response = cluster.handle(MetricsRequest())
        metrics = response.result["metrics"]
        assert metrics["cluster"]["counters"]["solves_started_total"] >= 2
        assert metrics["router"]["counters"]["router_requests_total"] >= 2
        assert len(metrics["shards"]) == 3


class TestMembership:
    def test_add_and_remove_shard(self, instances):
        with LocalCluster(shards=2, probe_interval=0.1) as cl:
            from repro.service.cluster import LocalShard

            extra = PlacementService(ServiceConfig(
                executor="inline", dispatchers=1, max_workers=1))
            try:
                cl.router.add_shard(LocalShard("shard-extra", extra))
                assert "shard-extra" in cl.router.shards()
                assert "shard-extra" in cl.router.ring.nodes()
                cl.router.remove_shard("shard-extra")
                assert "shard-extra" not in cl.router.shards()
                # Routing still works for every key afterwards.
                assert cl.handle(SolveRequest(
                    instance=instances[0])).ok
            finally:
                extra.close()

    def test_duplicate_shard_name_rejected(self):
        with LocalCluster(shards=2, probe_interval=0.1) as cl:
            from repro.service.cluster import LocalShard

            with pytest.raises(ValueError):
                cl.router.add_shard(
                    LocalShard("shard-0", cl.shards["shard-0"].service))


class TestRemoteShards:
    def test_router_over_tcp_daemons(self, instances):
        services = [PlacementService(ServiceConfig(
            executor="inline", dispatchers=1, max_workers=1))
            for _ in range(2)]
        servers = [AsyncFrontend(svc) for svc in services]
        for server in servers:
            server.start()
        shards = [RemoteShard(f"tcp-{i}", "127.0.0.1", server.port)
                  for i, server in enumerate(servers)]
        router = ClusterRouter(shards, probe_interval=0.2)
        try:
            assert router.handle(PingRequest()).ok
            first = router.handle(SolveRequest(instance=instances[0]))
            assert first.ok and first.shard in ("tcp-0", "tcp-1")
            again = router.handle(SolveRequest(instance=instances[0]))
            assert again.served == "cache"
            assert again.shard == first.shard
            # The second call reused the pooled connection.
            pooled = shards[int(first.shard[-1])]
            assert pooled.telemetry()["pool_hits"] >= 1
        finally:
            router.close()
            for shard in shards:
                shard.close()
            for server in servers:
                server.shutdown(drain=False)
            for svc in services:
                svc.close()
