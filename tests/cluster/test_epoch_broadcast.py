"""Cache clears across the cluster.

A cache entry is only safe to serve if its shard has taken every clear
the router has fanned out since the entry was cached.  These tests pin
the three legs of that invariant: a clear reaches every live shard, a
partitioned shard that missed one is cleared *before* it serves again
(the stale-hit prevention path, on the prober's rejoin and on the
fail-open route alike), and a killed-then-revived shard rejoins the
same way.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.generators import ExperimentConfig, build_instance
from repro.service import LocalCluster
from repro.service.protocol import InvalidateRequest, SolveRequest

@pytest.fixture(scope="module")
def instances():
    return [build_instance(ExperimentConfig(
        k=4, num_paths=6, rules_per_policy=5, seed=40 + i,
    )) for i in range(3)]


@pytest.fixture
def cluster():
    with LocalCluster(shards=3, probe_interval=0.1) as cl:
        yield cl


def _wait_live(cluster, name, present=True, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (name in cluster.router.live_shards()) == present:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"{name} did not become {'live' if present else 'down'}")


def _invalidations(cluster, shard):
    return cluster.shards[shard].service.cache.stats().invalidations


class TestBroadcast:
    def test_bump_reaches_every_shard(self, cluster, instances):
        first = cluster.handle(SolveRequest(instance=instances[0]))
        response = cluster.handle(InvalidateRequest())
        assert response.ok
        assert response.result["shards"] == {
            name: int(name == first.shard)
            for name in ("shard-0", "shard-1", "shard-2")}
        assert response.result["skipped_down"] == []

    def test_repeat_solve_resolves_after_bump(self, cluster, instances):
        first = cluster.handle(SolveRequest(instance=instances[0]))
        assert first.served == "solved"
        warm = cluster.handle(SolveRequest(instance=instances[0]))
        assert warm.served == "cache"
        assert cluster.handle(InvalidateRequest()).ok
        again = cluster.handle(SolveRequest(instance=instances[0]))
        assert again.ok
        assert again.served == "solved"  # the cached entry died

    def test_cache_rebuilds_at_the_new_epoch(self, cluster, instances):
        first = cluster.handle(SolveRequest(instance=instances[1]))
        assert first.served == "solved"
        shard = first.shard
        assert cluster.handle(InvalidateRequest()).ok
        rebuilt = cluster.handle(SolveRequest(instance=instances[1]))
        assert rebuilt.served == "solved" and rebuilt.shard == shard
        # The re-solve was cached again after the clear: warm again.
        warm = cluster.handle(SolveRequest(instance=instances[1]))
        assert warm.served == "cache" and warm.shard == shard


class TestPartitionedShard:
    def test_no_stale_hit_after_rejoin(self, cluster, instances):
        """The ordering that matters: solve X (cached on S) ->
        partition S -> invalidate (S misses it) -> S rejoins -> solve X
        must re-solve, never serve the pre-invalidation entry."""
        first = cluster.handle(SolveRequest(instance=instances[2]))
        assert first.served == "solved"
        shard = first.shard
        # Simulated partition: the router thinks S is down; the shard
        # itself (and its cache) is untouched.
        cluster.router._mark_down(shard)
        bump = cluster.handle(InvalidateRequest())
        assert shard in bump.result["skipped_down"]
        assert shard not in bump.result["shards"]
        # The prober heals the partition and must clear the shard.
        _wait_live(cluster, shard, present=True)
        assert _invalidations(cluster, shard) == 1
        again = cluster.handle(SolveRequest(instance=instances[2]))
        assert again.ok
        assert again.shard == shard
        assert again.served == "solved", (
            "stale cache entry served after missed invalidation")

    def test_fail_open_route_to_down_shard_catches_up_first(
            self, cluster, instances):
        """Fail-open routing (all preferred shards down-marked) must
        clear a shard that missed a clear inline rather than waiting
        for the prober."""
        cluster.router._probe_stop.set()  # only the route may rejoin
        first = cluster.handle(SolveRequest(instance=instances[2]))
        shard = first.shard
        assert cluster.handle(SolveRequest(
            instance=instances[2])).served == "cache"
        for name in cluster.router.shards():
            cluster.router._mark_down(name)
        assert cluster.handle(InvalidateRequest()).ok
        assert _invalidations(cluster, shard) == 0
        again = cluster.handle(SolveRequest(instance=instances[2]))
        assert again.ok and again.shard == shard
        assert again.served == "solved"
        assert _invalidations(cluster, shard) == 1


class TestRevivedShard:
    def test_killed_then_revived_shard_replays_ledger(self, cluster,
                                                      instances):
        """A shard revived after missing a clear is cleared before it
        is routed to again, then serves its keys."""
        first = cluster.handle(SolveRequest(instance=instances[0]))
        shard = first.shard
        cluster.kill(shard)
        _wait_live(cluster, shard, present=False)
        bump = cluster.handle(InvalidateRequest())
        assert shard in bump.result["skipped_down"]
        assert shard in cluster.router._missed
        cluster.revive(shard)
        _wait_live(cluster, shard, present=True)
        assert shard not in cluster.router._missed
        again = cluster.handle(SolveRequest(instance=instances[0]))
        assert again.ok and again.shard == shard
        assert again.served == "solved"
