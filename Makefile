# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-report lint lint-fix-baseline chaos recovery recovery-quick cluster cluster-quick churn churn-quick bench bench-report bench-tables bench-full serve examples clean

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

# Service crash-recovery acceptance: journal edge cases,
# resilient client, the 100-seed kill-restart matrix, and the real
# SIGKILL/SIGTERM end-to-ends (REPRO_RECOVERY_QUICK=1 or
# REPRO_RECOVERY_SEEDS=N shrink the matrix).
recovery:
	$(PYTHON) -m pytest tests/service/test_journal.py tests/service/test_client.py tests/chaos/test_service_recovery.py -q

recovery-quick:
	REPRO_RECOVERY_QUICK=1 $(PYTHON) -m pytest tests/service/test_journal.py tests/service/test_client.py tests/chaos/test_service_recovery.py -q

# Cluster acceptance: asyncio front-end protocol/shutdown, hash-ring
# properties (hypothesis), router affinity/failover, invalidation fan-out,
# and cluster chaos with a mid-run shard kill
# (REPRO_CLUSTER_QUICK=1 shrinks the workloads).
cluster:
	$(PYTHON) -m pytest tests/service/test_frontend.py tests/cluster/ -q

cluster-quick:
	REPRO_CLUSTER_QUICK=1 $(PYTHON) -m pytest tests/service/test_frontend.py tests/cluster/ -q

# Traffic-driven caching acceptance: the traffic/counter/cache/harness
# suites (including the seeded strategy comparison), then the seeded
# churn matrix through the journaled service, which exits nonzero on
# any verdict/closure violation or shadow-digest mismatch.
churn:
	$(PYTHON) -m pytest tests/traffic/ -q
	$(PYTHON) -m repro.cli churn --service -o churn_report.json

churn-quick:
	$(PYTHON) -m pytest tests/traffic/ -q
	$(PYTHON) -m repro.cli churn --service --quick --seeds 10 -o churn_report.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-tables:
	$(PYTHON) -m pytest benchmarks/ -s -q

bench-full:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --full-scale -s

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
