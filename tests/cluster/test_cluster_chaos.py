"""Cluster-level chaos: the keyed workload with a shard dying mid-run.

The cluster guarantee under test is *zero failed acked requests*: a
shard killed between the burst and delta phases must cost latency (one
failover + catalog re-deploy per affected deployment), never a failed
request in the loadgen report.  The end-to-end class boots a real
``repro serve --shards 3`` subprocess, drives the same workload over
TCP, and checks the SIGTERM graceful-drain contract the single-daemon
chaos suite pins.

``REPRO_CLUSTER_QUICK=1`` shrinks the workload for CI smoke runs (the
defaults here are already modest; quick roughly halves them).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys

import pytest

from repro.service import (
    ClusterLoadgenConfig,
    LocalCluster,
    ServiceClient,
    run_cluster_loadgen,
)

_QUICK = os.environ.get("REPRO_CLUSTER_QUICK") == "1"


def _workload(**overrides) -> ClusterLoadgenConfig:
    base = dict(
        seed=7, shards=3, deployments=3,
        unique_instances=3 if _QUICK else 4,
        repeats=2 if _QUICK else 3,
        deltas=2 if _QUICK else 4,
        clients=2 if _QUICK else 4,
        burst=3 if _QUICK else 4,
        num_paths=6, rules_per_policy=6, capacity=60,
        executor="inline", request_timeout=120.0,
    )
    base.update(overrides)
    return ClusterLoadgenConfig(**base)


class TestShardDeathMidRun:
    def test_zero_failures_with_home_shard_killed(self):
        """Kill the shard that owns deployment ``loadgen-0`` right
        before the delta phase; its deltas must fail over (catalog
        re-deploy on the ring successor) with zero failed requests."""
        config = _workload()
        with LocalCluster(shards=config.shards,
                          probe_interval=0.1) as cluster:
            victim = cluster.router.ring.route("loadgen-0")

            report = run_cluster_loadgen(
                config, cluster=cluster,
                disrupt=lambda: cluster.kill(victim))

        assert report["totals"]["failures"] == 0, (
            report["totals"]["failure_statuses"])
        summary = report["cluster"]
        assert summary["shards_hit"] >= 2
        assert summary["warm_affinity"]["violations"] == []
        # Every deployment's deltas landed somewhere; the victim's
        # deployment moved to a live shard.
        assert set(summary["delta_homes"]) == {
            "loadgen-0", "loadgen-1", "loadgen-2"}
        for shards in summary["delta_homes"].values():
            assert shards  # served, not dropped
        homes = summary["delta_homes"]["loadgen-0"]
        assert homes != [victim], "deltas kept landing on a dead shard"
        failovers = cluster.router.metrics.counter(
            "router_failovers_total").value
        assert failovers >= 1

    def test_clean_run_has_affinity_and_spread(self):
        report = run_cluster_loadgen(_workload())
        assert report["totals"]["failures"] == 0
        summary = report["cluster"]
        assert summary["shards_hit"] >= 2
        assert summary["warm_affinity"]["violations"] == []
        # Undisrupted, each deployment has exactly one home.
        for shards in summary["delta_homes"].values():
            assert len(shards) == 1


# ---------------------------------------------------------------------------
# Real-process end-to-end
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_cluster(port: int, journal_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                     "..", "..", "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--shards", "3", "--executor", "inline",
         "--journal-dir", journal_dir, "--durability", "flush",
         "--drain-timeout", "20"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )


def _kill_group(daemon: subprocess.Popen) -> None:
    """SIGKILL the daemon's whole process group: ``daemon.kill()``
    alone would leave a stuck child of the daemon running."""
    try:
        os.killpg(daemon.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    daemon.wait(timeout=10.0)


class TestClusterEndToEnd:
    def test_serve_shards_over_tcp_then_sigterm_drain(self, tmp_path):
        """`repro serve --shards 3` behind the asyncio front-end: the
        full keyed workload over real sockets with zero failures,
        cluster-shaped metrics, then a clean SIGTERM drain (exit 0)."""
        port = _free_port()
        daemon = _spawn_cluster(port, str(tmp_path / "wal"))
        try:
            client = ServiceClient(port=port, retries=8,
                                   backoff_base=0.2, timeout=60.0)
            try:
                client.wait_ready(timeout=60.0)
                ping = client.ping()
                assert ping.result.get("cluster") is True
                assert len(ping.result["shards"]) == 3
            finally:
                client.close()

            config = _workload(address=f"127.0.0.1:{port}",
                               client_retries=4)
            report = run_cluster_loadgen(config)
            assert report["totals"]["failures"] == 0, (
                report["totals"]["failure_statuses"])
            assert report["cluster"]["shards_hit"] >= 2
            assert report["cluster"]["warm_affinity"]["violations"] == []

            daemon.send_signal(signal.SIGTERM)
            output, _ = daemon.communicate(timeout=60.0)
            assert daemon.returncode == 0, output
            assert "draining" in output
        finally:
            _kill_group(daemon)

    def test_loadgen_cli_against_live_cluster(self, tmp_path):
        """The ``repro loadgen --cluster`` CLI writes a report with the
        cluster section and exits 0 on a zero-failure run."""
        port = _free_port()
        daemon = _spawn_cluster(port, str(tmp_path / "wal"))
        out = tmp_path / "loadgen.json"
        try:
            client = ServiceClient(port=port, retries=8,
                                   backoff_base=0.2, timeout=60.0)
            try:
                client.wait_ready(timeout=60.0)
            finally:
                client.close()
            env = dict(os.environ)
            env["PYTHONPATH"] = os.path.join(
                os.path.dirname(__file__), "..", "..", "src")
            env["REPRO_CLUSTER_QUICK"] = "1"
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "loadgen",
                 "--cluster", "--address", f"127.0.0.1:{port}",
                 "-o", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stdout + result.stderr
            report = json.loads(out.read_text())
            assert report["totals"]["failures"] == 0
            assert "cluster" in report
        finally:
            _kill_group(daemon)
