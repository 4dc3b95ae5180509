"""End-to-end churn harness tests: the closed loop, the oracles, and
the service delta path."""

from __future__ import annotations

from dataclasses import replace

from repro.traffic import ChurnConfig, run_churn, run_churn_matrix


QUICK = ChurnConfig(seed=0, ticks=32, k=4, num_paths=6,
                    rules_per_policy=16, packets_per_tick=40,
                    flash_start=16, flash_length=8, warmup_ticks=8)


class TestRunChurn:
    def test_zero_violations_and_traffic_flows(self):
        report = run_churn(QUICK)
        assert report["verdict_violations"] == 0
        assert report["closure_violations"] == 0
        assert report["packets"] == 32 * 40
        assert report["rounds"] == 32 // QUICK.control_interval
        assert report["deltas"] > 0
        assert report["cached_rules"] > 0

    def test_caching_earns_hits(self):
        report = run_churn(QUICK)
        # A cold cache hits nothing; by the end the controller must
        # have captured a real share of the (drop-heavy) stream.
        assert report["hit_rate"] > 0.15
        assert report["hit_rate_steady"] >= report["hit_rate"] * 0.9

    def test_deterministic_replay(self):
        first = run_churn(QUICK)
        second = run_churn(QUICK)
        assert first["state_digest"] == second["state_digest"]
        assert first["hit_rate"] == second["hit_rate"]
        assert first["promotions"] == second["promotions"]

    def test_zero_budget_caches_nothing(self):
        report = run_churn(replace(QUICK, budget=0))
        assert report["cached_rules"] == 0
        assert report["hit_rate"] == 0.0
        assert report["verdict_violations"] == 0

    def test_matrix_aggregates_across_seeds(self):
        result = run_churn_matrix(QUICK, seeds=range(3))
        assert result["seeds"] == 3
        assert result["total_violations"] == 0
        assert len(result["runs"]) == 3
        digests = {run["seed"] for run in result["runs"]}
        assert digests == {0, 1, 2}


class TestStrategyComparison:
    def test_popularity_beats_lru_and_static(self):
        """Popularity (EWMA) scoring earns a higher mean hit rate than
        LRU and static top-k at budgets 8 and 16 over seeds 0-1, under
        Zipf traffic with drift and a flash crowd.  All strategies share
        the closure-aware unit machinery, so the margin isolates the
        scoring policy; every run stays violation-free."""
        base = ChurnConfig(ticks=64, k=4, num_paths=8, rules_per_policy=24,
                           capacity=48, packets_per_tick=64, zipf_skew=1.2,
                           drift_period=64, flash_start=32, flash_length=16,
                           mean_flow_lifetime=48)
        for budget in (8, 16):
            rates = {}
            for strategy in ("popularity", "lru", "static"):
                runs = [run_churn(replace(base, seed=seed, budget=budget,
                                          strategy=strategy))
                        for seed in (0, 1)]
                for run in runs:
                    assert run["verdict_violations"] == 0
                    assert run["closure_violations"] == 0
                rates[strategy] = sum(r["hit_rate"] for r in runs) / len(runs)
            assert rates["popularity"] > rates["lru"], (budget, rates)
            assert rates["popularity"] > rates["static"], (budget, rates)


class TestServiceParity:
    def test_service_path_matches_local_digest(self):
        """Same seed through the journaled service delta path and the
        local deployer must end in the identical deployed state."""
        local = run_churn(QUICK)
        remote = run_churn(replace(QUICK, service=True))
        assert remote["digest_mismatches"] == 0
        assert remote["verdict_violations"] == 0
        assert remote["closure_violations"] == 0
        # Controller decisions are seed-deterministic, and the service
        # commits exactly what the shadow commits.
        assert remote["state_digest"] == local["state_digest"]
        assert remote["hit_rate"] == local["hit_rate"]

    def test_journal_sees_the_churn(self, tmp_path):
        """Route churn deltas through a journaled service: the deltas
        land in the write-ahead log and recovery replays to the same
        digest the shadow computed."""
        from repro.service.daemon import PlacementService, ServiceConfig

        service = PlacementService(ServiceConfig(
            executor="inline", max_workers=2, dispatchers=1,
            journal_dir=str(tmp_path)))
        try:
            report = run_churn(QUICK, service=service)
            assert report["digest_mismatches"] == 0
            assert report["deltas"] > 0
        finally:
            service.close()
        recovered = PlacementService(ServiceConfig(
            executor="inline", max_workers=2, dispatchers=1,
            journal_dir=str(tmp_path)))
        try:
            assert (recovered.broker.deployment_digest(
                        f"churn-{QUICK.seed}")
                    == report["state_digest"])
        finally:
            recovered.close()
