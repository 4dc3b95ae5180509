# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test lint lint-fix-baseline chaos recovery recovery-quick cluster cluster-quick churn churn-quick bench bench-tables bench-full bench-compile bench-compile-quick bench-serve bench-serve-quick bench-warm bench-warm-quick bench-recovery bench-recovery-quick bench-cluster bench-cluster-quick serve examples verify-all clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

test-report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Project static analyzer (REP-FORK/ASYNC/LOCK/SEED/PROTO); fails on
# any non-baselined finding.  See docs/architecture.md "Static
# analysis" and `repro lint --explain RULE-ID`.
lint:
	$(PYTHON) -m repro.cli lint --format human

# Record the current findings as the accepted baseline.  Policy: keep
# the baseline empty -- fix the finding or add an inline
# `# repro: allow[RULE-ID] reason` at a provably safe site instead.
lint-fix-baseline:
	$(PYTHON) -m repro.cli lint --write-baseline

# The full 200-schedule chaos matrix (REPRO_CHAOS_QUICK=1 or
# REPRO_CHAOS_SEEDS=N shrink it for quick local runs).
chaos:
	REPRO_CHAOS_SEEDS=200 $(PYTHON) -m pytest tests/chaos/ -q

# Service crash-recovery acceptance: journal edge cases, supervisor,
# resilient client, the 100-seed kill-restart matrix, and the real
# SIGKILL/SIGTERM end-to-ends (REPRO_RECOVERY_QUICK=1 or
# REPRO_RECOVERY_SEEDS=N shrink the matrix).
recovery:
	$(PYTHON) -m pytest tests/service/test_journal.py tests/service/test_supervisor.py tests/service/test_client.py tests/chaos/test_service_recovery.py -q

recovery-quick:
	REPRO_RECOVERY_QUICK=1 $(PYTHON) -m pytest tests/service/test_journal.py tests/service/test_supervisor.py tests/service/test_client.py tests/chaos/test_service_recovery.py -q

# Cluster acceptance: asyncio front-end protocol/shutdown, hash-ring
# properties (hypothesis), router affinity/failover, epoch broadcast,
# and cluster chaos with a mid-run shard kill
# (REPRO_CLUSTER_QUICK=1 shrinks the workloads).
cluster:
	$(PYTHON) -m pytest tests/service/test_frontend.py tests/cluster/ -q

cluster-quick:
	REPRO_CLUSTER_QUICK=1 $(PYTHON) -m pytest tests/service/test_frontend.py tests/cluster/ -q

# Traffic-driven caching acceptance: the traffic/counter/cache/harness
# suites plus the strategy-comparison and 50-seed oracle benchmark;
# writes BENCH_pr10.json (REPRO_CHURN_QUICK=1 or REPRO_CHURN_SEEDS=N
# shrink the matrix).
churn:
	$(PYTHON) -m pytest tests/traffic/ -q
	$(PYTHON) -m pytest benchmarks/test_churn_caching.py -q -s

churn-quick:
	REPRO_CHURN_QUICK=1 $(PYTHON) -m pytest tests/traffic/ -q
	REPRO_CHURN_QUICK=1 $(PYTHON) -m pytest benchmarks/test_churn_caching.py -q -s

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-tables:
	$(PYTHON) -m pytest benchmarks/ -s -q

bench-full:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --full-scale -s

# Compile fast-path acceptance (1k/5k/10k rules); writes BENCH_pr3.json.
bench-compile:
	$(PYTHON) -m pytest benchmarks/test_compile_fastpath.py -q -s

# 1k point only; refreshes BENCH_pr3.json without clobbering full-tier
# numbers, and checks the 2x regression guard against them.
bench-compile-quick:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/test_compile_fastpath.py -q -s

# Serving acceptance: seeded mixed workload against a live
# PlacementService; writes BENCH_pr5.json.
bench-serve:
	$(PYTHON) -m pytest benchmarks/test_service_throughput.py -q -s

# Small workload with inline workers; merges into BENCH_pr5.json
# without clobbering full-tier numbers.
bench-serve-quick:
	REPRO_SERVE_QUICK=1 $(PYTHON) -m pytest benchmarks/test_service_throughput.py -q -s

# Warm-session acceptance: differential equivalence harness (100
# seeded delta streams, warm vs. cold) plus the per-delta overhead
# benchmark at the 10k-rule point; writes BENCH_pr6.json.
bench-warm:
	$(PYTHON) -m pytest tests/solve/test_session_differential.py -q
	$(PYTHON) -m pytest benchmarks/test_service_throughput.py -q -s -k TestWarmSessionOverhead

# Quick tier: 20 seeds and a small instance; merges into BENCH_pr6.json
# without clobbering full-tier numbers.
bench-warm-quick:
	REPRO_WARM_QUICK=1 $(PYTHON) -m pytest tests/solve/test_session_differential.py -q
	REPRO_SERVE_QUICK=1 $(PYTHON) -m pytest benchmarks/test_service_throughput.py -q -s -k TestWarmSessionOverhead

# Journal overhead + recovery-time acceptance at the 10k-rule point;
# writes BENCH_pr7.json.
bench-recovery:
	$(PYTHON) -m pytest benchmarks/test_service_throughput.py -q -s -k TestDurability

# Small instance; merges into BENCH_pr7.json without clobbering
# full-tier numbers.
bench-recovery-quick:
	REPRO_SERVE_QUICK=1 $(PYTHON) -m pytest benchmarks/test_service_throughput.py -q -s -k TestDurability

# Cluster acceptance benchmarks: idle-connection capacity (1000 idle
# connections on the asyncio front-end, ping p95 <= 10 ms) and 1 -> 4
# shard warm-delta scaling; writes BENCH_pr8.json.
bench-cluster:
	$(PYTHON) -m pytest benchmarks/test_cluster_scaling.py -q -s

# Smaller workloads (200 idle conns, 1 -> 2 shards); merges into
# BENCH_pr8.json without clobbering full-tier numbers.
bench-cluster-quick:
	REPRO_CLUSTER_QUICK=1 $(PYTHON) -m pytest benchmarks/test_cluster_scaling.py -q -s

# Run the placement daemon on localhost (Ctrl-C to stop).  Add
# --journal-dir/--durability for a crash-safe daemon; --shards N for
# the consistent-hash cluster.
serve:
	$(PYTHON) -m repro.cli serve

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
