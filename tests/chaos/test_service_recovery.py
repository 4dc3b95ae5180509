"""Service-level chaos: the crash-recovery seed matrix and a real
kill-restart end-to-end.

Environment knobs (mirroring the dataplane chaos suite):

* ``REPRO_RECOVERY_QUICK=1`` -- shrink the seed matrix for fast local
  runs;
* ``REPRO_RECOVERY_SEEDS=N`` -- explicit seed-matrix size.

Default is the full 100-seed matrix the acceptance criteria call for;
every seeded crash storm must recover with zero invariant violations:
acked implies recovered (digest-identical), retries replay, every
deployment has a live worker, and the storm run lands exactly where a
crash-free run of the same op stream lands.

The end-to-end class does it for real: a daemon subprocess under
client load, ``SIGKILL`` mid-stream, a replacement booted from the
same journal, and the client riding across the restart on reconnect +
idempotent retry.  A second test drives the ``SIGTERM`` graceful-drain
path of the CLI.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro import io as repro_io
from repro.chaos import ServiceChaosConfig, run_service_chaos
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.net.routing import Routing, ShortestPathRouter
from repro.policy.classbench import generate_policy_set
from repro.service import ServiceClient, ServiceUnavailable
from repro.service.protocol import DeltaRequest, SolveRequest

_QUICK = os.environ.get("REPRO_RECOVERY_QUICK") == "1"
_SEEDS = range(int(os.environ.get("REPRO_RECOVERY_SEEDS",
                                  "20" if _QUICK else "100")))


class TestHarnessShape:
    def test_report_shape_and_activity(self, tmp_path):
        report = run_service_chaos(ServiceChaosConfig(seed=0),
                                   workdir=str(tmp_path))
        assert report.seed == 0
        assert report.crashes == report.recoveries == 3
        assert report.operations == 14
        assert report.acked > 0
        assert report.replayed_records > 0
        assert len(report.fingerprint()) == 64
        as_dict = report.as_dict()
        assert as_dict["ok"] is True
        assert as_dict["final_digest"] == as_dict["clean_digest"]

    def test_deterministic_per_seed(self):
        first = run_service_chaos(ServiceChaosConfig(seed=3))
        second = run_service_chaos(ServiceChaosConfig(seed=3))
        assert first.fingerprint() == second.fingerprint()
        assert first.final_digest == second.final_digest

    def test_distinct_seeds_distinct_storms(self):
        digests = {run_service_chaos(ServiceChaosConfig(seed=s)).fingerprint()
                   for s in range(4)}
        assert len(digests) == 4

    def test_compaction_is_exercised(self, tmp_path):
        """With snapshot_every small, the storm must cross snapshot
        boundaries -- recovery from snapshot+tail, not just raw log."""
        run_service_chaos(ServiceChaosConfig(seed=1, snapshot_every=4),
                          workdir=str(tmp_path))
        names = os.listdir(str(tmp_path))
        assert any(n.startswith("snapshot-") for n in names)


class TestRecoveryMatrix:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_zero_invariant_violations(self, seed):
        report = run_service_chaos(ServiceChaosConfig(seed=seed))
        assert report.ok, report.violations


# ---------------------------------------------------------------------------
# Real-process end-to-end
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_daemon(journal_dir: str, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                     "..", "..", "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--executor", "inline",
         "--journal-dir", journal_dir, "--durability", "flush",
         "--snapshot-every", "8", "--drain-timeout", "20"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture(scope="module")
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=4, rules_per_policy=4, seed=2))


def _delta_stream(instance, count):
    ports = [p.name for p in instance.topology.entry_ports]
    used = set(instance.policies.ingresses)
    free = next(p for p in ports if p not in used)
    policy = generate_policy_set([free], rules_per_policy=3, seed=9)[free]
    router = ShortestPathRouter(instance.topology, seed=4)
    requests = [DeltaRequest(
        deployment="prod", op="install", ingress=free,
        policy=repro_io.policy_to_dict(policy),
        paths=repro_io.routing_to_dict(
            Routing([router.shortest_path(free, ports[0])])),
        request_id="e2e-install")]
    for index in range(count - 1):
        egress = ports[(index + 1) % len(ports)]
        if egress == free:
            egress = ports[(index + 2) % len(ports)]
        requests.append(DeltaRequest(
            deployment="prod", op="reroute", ingress=free,
            paths=repro_io.routing_to_dict(
                Routing([router.shortest_path(free, egress)])),
            request_id=f"e2e-rr-{index}"))
    return requests


class TestKillRestartEndToEnd:
    def test_sigkill_under_load_then_recover(self, instance, tmp_path):
        """Boot a daemon under client load, ``kill -9`` it mid-stream,
        boot a replacement from the same journal, and assert every
        acked commit is recovered digest-identical -- the acceptance
        scenario, with nothing simulated."""
        journal_dir = str(tmp_path / "wal")
        port = _free_port()
        daemon = _spawn_daemon(journal_dir, port)
        replacement = None
        client = ServiceClient(port=port, retries=8, backoff_base=0.1,
                               timeout=60.0)
        try:
            client.wait_ready(timeout=60.0)
            solved = client.call(
                SolveRequest(instance, deploy_as="prod",
                             request_id="e2e-solve"), timeout=120.0)
            assert solved.ok, solved.error
            acked = [("e2e-solve", solved.result["state_digest"])]

            requests = _delta_stream(instance, 8)
            kill_after = 3
            interrupted = None
            for index, request in enumerate(requests):
                if index == kill_after:
                    daemon.send_signal(signal.SIGKILL)
                    daemon.wait(timeout=10.0)
                    # The very next call lands on a dead daemon; spin
                    # up the replacement while the client is already
                    # backing off toward it.
                    replacement = _spawn_daemon(journal_dir, port)
                try:
                    response = client.call(request, timeout=60.0)
                except ServiceUnavailable as fail:  # pragma: no cover
                    interrupted = (request.request_id, fail)
                    break
                assert response.ok, (request.request_id, response.error)
                acked.append((request.request_id,
                              response.result["state_digest"]))
            assert interrupted is None, interrupted
            assert len(acked) == 1 + len(requests)

            # The replacement recovered from the journal: the daemon's
            # current state digest is the last acked digest, and every
            # acked commit is in the dedup table (replay, not reapply).
            health = client.health(deep=True, timeout=30.0)
            assert health.ok and health.result["healthy"]
            assert health.result["state_digests"]["prod"] == acked[-1][1]
            assert health.result["recovery"]["deployments"] == 1

            for request in requests[:kill_after]:
                replay = client.call(request, timeout=60.0)
                assert replay.ok and replay.served == "replay", \
                    request.request_id
            assert client.health(deep=True).result[
                "state_digests"]["prod"] == acked[-1][1]
        finally:
            client.close()
            for proc in (daemon, replacement):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                if proc is not None:
                    proc.wait(timeout=10.0)

    def test_sigterm_drains_and_exits_clean(self, instance, tmp_path):
        """SIGTERM must drain: ack in-flight work, sync the journal,
        exit 0 -- and a successor must recover the full state."""
        journal_dir = str(tmp_path / "wal")
        port = _free_port()
        daemon = _spawn_daemon(journal_dir, port)
        client = ServiceClient(port=port, retries=6, backoff_base=0.1,
                               timeout=60.0)
        try:
            client.wait_ready(timeout=60.0)
            solved = client.call(
                SolveRequest(instance, deploy_as="prod",
                             request_id="term-solve"), timeout=120.0)
            assert solved.ok
            digest = solved.result["state_digest"]

            daemon.send_signal(signal.SIGTERM)
            output, _ = daemon.communicate(timeout=60.0)
            assert daemon.returncode == 0, output
            assert "draining" in output

            successor = _spawn_daemon(journal_dir, port)
            try:
                client.wait_ready(timeout=60.0)
                health = client.health(deep=True, timeout=30.0)
                assert health.ok
                assert health.result["state_digests"]["prod"] == digest
            finally:
                successor.kill()
                successor.wait(timeout=10.0)
        finally:
            client.close()
            if daemon.poll() is None:  # pragma: no cover - hung drain
                daemon.kill()
                daemon.wait(timeout=10.0)
