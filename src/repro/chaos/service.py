"""Service-level chaos: crash the daemon, corrupt its journal, prove
recovery.

PR 2's harness storms the *dataplane* channel; this module applies the
same discipline one layer up, to the serving daemon itself.  A seeded
schedule drives a mixed workload (deploys, install/remove/reroute
deltas, cache clears) against a journaled
:class:`~repro.service.daemon.PlacementService` and injects the
failures a WAL exists to survive:

* **process death** -- the service is abandoned mid-life without any
  shutdown path running (session worker children are SIGKILLed), then
  a fresh service boots from the same journal directory;
* **torn writes** -- after the "crash", bytes *beyond the last durable
  offset* are damaged: truncated mid-record, overwritten with garbage,
  or duplicated.  The boundary matters: damage past the durable offset
  is what a real torn write can do, damage before it would be disk
  corruption, which the journal correctly refuses (fail-closed) rather
  than tolerates.

The invariant oracle, checked after every restart:

1. **Acked implies recovered** -- every deployment's state digest
   equals the digest acked to the client by the last committed
   operation (the daemon's acks are tracked as the authoritative
   expectation);
2. **Retries are idempotent** -- re-sending the last committed
   ``request_id`` answers ``served="replay"``, not a double-apply;
3. **Every deployment has a worker** -- recovery forks each recovered
   deployment's session worker before serving;
4. **Differential equivalence** -- at the end, the final digest of the
   crash-storm run equals the final digest of a clean (journal-less,
   crash-less) service fed the identical op stream.  Unacked work may
   be lost, but the harness's synchronous op stream acks everything it
   applies, so the storm run must land exactly where the clean run
   does.

Everything is deterministic per seed; the report fingerprint is a
:func:`~repro.digest.canonical_digest`, same as the dataplane harness.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import io as repro_io
from ..digest import canonical_digest
from ..experiments.generators import ExperimentConfig, build_instance
from ..net.routing import Routing, ShortestPathRouter
from ..policy.classbench import generate_policy_set

if False:  # pragma: no cover - annotations only
    from ..service.daemon import PlacementService

# The service layer imports ``repro.__version__``, so importing it at
# module scope from inside the ``repro.chaos`` package-init chain would
# be circular.  Deferred to first use instead.
_service_mod = None
_protocol_mod = None


def _svc():
    global _service_mod, _protocol_mod
    if _service_mod is None:
        from ..service import daemon as _d
        from ..service import protocol as _p
        _service_mod, _protocol_mod = _d, _p
    return _service_mod, _protocol_mod

__all__ = [
    "ServiceChaosConfig",
    "ServiceChaosReport",
    "run_service_chaos",
]

_DEPLOYMENT = "chaos"


@dataclass
class ServiceChaosConfig:
    """One seeded service-chaos run."""

    seed: int = 0
    #: Deltas/invalidations after the initial deploy.
    operations: int = 14
    #: Crash-and-recover cycles spread through the run.
    crashes: int = 3
    #: Probability an op is a removal (vs install/reroute/invalidate).
    #: The mix keeps several policies live for reroutes to target.
    snapshot_every: int = 6
    #: ``flush`` survives process death -- the failure mode this
    #: harness injects.  (``fsync`` adds power-loss durability but
    #: ~100x the latency; the replay logic is identical.)
    durability: str = "flush"
    #: ``inline`` keeps the matrix deterministic and fork-free;
    #: ``process`` additionally exercises SIGKILLed session children.
    executor: str = "inline"
    instance_config: ExperimentConfig = field(default_factory=lambda: (
        ExperimentConfig(k=4, num_paths=4, rules_per_policy=4, seed=2)))


@dataclass
class ServiceChaosReport:
    """Outcome of one run; ``ok`` iff no invariant violated."""

    seed: int
    operations: int = 0
    acked: int = 0
    crashes: int = 0
    recoveries: int = 0
    injections: Dict[str, int] = field(default_factory=dict)
    replayed_records: int = 0
    violations: List[str] = field(default_factory=list)
    final_digest: str = ""
    clean_digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> str:
        return canonical_digest((
            f"seed:{self.seed}",
            f"ops:{self.operations}",
            f"acked:{self.acked}",
            f"crashes:{self.crashes}",
            f"final:{self.final_digest}",
            f"clean:{self.clean_digest}",
            *(f"violation:{v}" for v in self.violations),
        ))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "operations": self.operations,
            "acked": self.acked,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "injections": dict(self.injections),
            "violations": list(self.violations),
            "final_digest": self.final_digest,
            "clean_digest": self.clean_digest,
            "fingerprint": self.fingerprint(),
        }


# ---------------------------------------------------------------------------
# Seeded op stream
# ---------------------------------------------------------------------------


class _OpStream:
    """Deterministic operation generator over one instance.

    Tracks which ingresses currently hold a policy so removals and
    reroutes always target live state -- the stream is identical for
    the storm run and the clean differential run.
    """

    def __init__(self, instance, seed: int) -> None:
        self.instance = instance
        self.rng = random.Random(0xC11A05 ^ seed)
        self.router = ShortestPathRouter(instance.topology, seed=4)
        self.ports = [p.name for p in instance.topology.entry_ports]
        used = set(instance.policies.ingresses)
        self.free = [p for p in self.ports if p not in used]
        self.rng.shuffle(self.free)
        self.live: List[str] = []
        self.counter = 0

    def _paths(self, ingress: str) -> List[Dict[str, Any]]:
        egress = self.rng.choice(
            [p for p in self.ports if p != ingress])
        return repro_io.routing_to_dict(
            Routing([self.router.shortest_path(ingress, egress)]))

    def next_op(self):
        """One request spec: ("delta", DeltaRequest-kwargs, ingress) or
        ("invalidate", None, None), a cache clear."""
        self.counter += 1
        request_id = f"chaos-{self.counter}"
        roll = self.rng.random()
        if roll < 0.12:
            return ("invalidate", None, None)
        if roll < 0.30 and self.live:
            ingress = self.rng.choice(self.live)
            self.live.remove(ingress)
            self.free.append(ingress)
            return ("delta", {"deployment": _DEPLOYMENT, "op": "remove",
                              "ingress": ingress,
                              "request_id": request_id}, ingress)
        if roll < 0.55 and self.live:
            ingress = self.rng.choice(self.live)
            return ("delta", {"deployment": _DEPLOYMENT, "op": "reroute",
                              "ingress": ingress,
                              "paths": self._paths(ingress),
                              "request_id": request_id}, ingress)
        if self.free:
            ingress = self.free.pop()
            policy = generate_policy_set(
                [ingress], rules_per_policy=3,
                seed=self.rng.randrange(1 << 16))[ingress]
            self.live.append(ingress)
            return ("delta", {"deployment": _DEPLOYMENT, "op": "install",
                              "ingress": ingress,
                              "policy": repro_io.policy_to_dict(policy),
                              "paths": self._paths(ingress),
                              "request_id": request_id}, ingress)
        # Everything deployed and the roll said install: reroute instead.
        ingress = self.rng.choice(self.live)
        return ("delta", {"deployment": _DEPLOYMENT, "op": "reroute",
                          "ingress": ingress,
                          "paths": self._paths(ingress),
                          "request_id": request_id}, ingress)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def _simulate_crash(service: PlacementService) -> None:
    """Die like ``kill -9``: no drain, no close, no journal flush
    beyond what commits already made durable.  Session worker children
    are killed for real -- they are separate processes and would
    otherwise outlive their 'crashed' parent state."""
    for info in service.broker.session_health().values():
        pid = info.get("pid")
        if pid:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    # Abandon broker/pool/journal objects without their shutdown paths:
    # daemon threads die with the harness's references.  Mark the
    # journal closed so its flusher thread exits and its fd drops.
    if service.journal is not None:
        service.journal.close()


def _inject_damage(journal_dir: str, durable_offset: int, tail: str,
                   rng: random.Random, report: ServiceChaosReport) -> None:
    """Corrupt the journal tail -- only beyond the durable offset.

    The chooser is seeded, so each seed exercises a reproducible mix of
    torn truncation, garbage appends, and duplicated frames.
    """
    kind = rng.choice(["none", "truncate", "garbage", "duplicate"])
    if kind == "none":
        return
    report.injections[kind] = report.injections.get(kind, 0) + 1
    with open(tail, "rb+") as handle:
        raw = handle.read()
        if kind == "truncate":
            # Tear mid-byte into anything written after the durable
            # offset (a partial unacked record); if nothing is there,
            # tear nothing -- acked bytes are off-limits.
            if len(raw) > durable_offset:
                cut = rng.randrange(durable_offset, len(raw))
                handle.truncate(cut)
        elif kind == "garbage":
            handle.seek(0, os.SEEK_END)
            junk = bytes(rng.randrange(256) for _ in range(
                rng.randrange(3, 40)))
            handle.write(junk)
        elif kind == "duplicate":
            lines = raw.splitlines(keepends=True)
            if lines:
                handle.seek(0, os.SEEK_END)
                handle.write(lines[-1])


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run_service_chaos(config: ServiceChaosConfig,
                      workdir: Optional[str] = None) -> ServiceChaosReport:
    """Execute one seeded crash-storm run and its oracle checks."""
    report = ServiceChaosReport(seed=config.seed)
    rng = random.Random(0x5EED ^ config.seed)
    owns_dir = workdir is None
    journal_dir = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    instance = build_instance(config.instance_config)
    try:
        _storm(config, instance, journal_dir, rng, report)
        _differential(config, instance, report)
    finally:
        if owns_dir:
            shutil.rmtree(journal_dir, ignore_errors=True)
    return report


def _service(config: ServiceChaosConfig,
             journal_dir: str) -> "PlacementService":
    daemon, _ = _svc()
    return daemon.PlacementService(daemon.ServiceConfig(
        executor=config.executor,
        journal_dir=journal_dir,
        durability=config.durability,
        snapshot_every=config.snapshot_every,
    ))


def _deploy(service, instance):
    _, protocol = _svc()
    return service.handle(protocol.SolveRequest(
        instance=instance, deploy_as=_DEPLOYMENT,
        request_id="chaos-deploy"), timeout=120.0)


def _apply_op(service, op):
    _, protocol = _svc()
    if op[0] == "invalidate":
        return service.handle(protocol.InvalidateRequest(), timeout=30.0)
    return service.handle(protocol.DeltaRequest(**op[1]), timeout=60.0)


def _storm(config: ServiceChaosConfig, instance, journal_dir: str,
           rng: random.Random, report: ServiceChaosReport) -> None:
    """The crash-storm run: ops interleaved with kill/corrupt/restart."""
    crash_points = sorted(rng.sample(
        range(1, config.operations + 1),
        min(config.crashes, config.operations)))
    stream = _OpStream(instance, config.seed)
    service = _service(config, journal_dir)
    acked_digest: Optional[str] = None
    last_commit: Optional[Dict[str, Any]] = None

    try:
        deployed = _deploy(service, instance)
        if not deployed.ok:
            report.violations.append("initial deploy failed")
            return
        acked_digest = deployed.result["state_digest"]

        for index in range(1, config.operations + 1):
            op = stream.next_op()
            response = _apply_op(service, op)
            report.operations += 1
            if response.ok:
                report.acked += 1
                if op[0] != "invalidate":
                    acked_digest = response.result["state_digest"]
                    last_commit = {"request": dict(op[1]),
                                   "digest": acked_digest}
            elif response.status not in ("infeasible",):
                # The harness's stream only issues applicable ops; any
                # hard failure is a finding.
                report.violations.append(
                    f"op {index} failed unexpectedly: "
                    f"{response.status}: {response.error}")

            if index in crash_points:
                durable = (service.journal.durable_offset()
                           if service.journal is not None else 0)
                tail = service.journal.tail_path()
                _simulate_crash(service)
                report.crashes += 1
                _inject_damage(journal_dir, durable, tail, rng, report)

                service = _service(config, journal_dir)
                report.recoveries += 1
                recovery = service.last_recovery
                report.replayed_records += recovery.get("records", 0)
                _check_recovery(service, acked_digest, last_commit,
                                report)

        report.final_digest = service.broker.deployment_digest(_DEPLOYMENT)
    finally:
        service.close()


def _check_recovery(service, acked_digest: Optional[str],
                    last_commit: Optional[Dict[str, Any]],
                    report: ServiceChaosReport) -> None:
    """The invariant oracle, run against a freshly recovered daemon."""
    recovered = service.broker.deployment_digest(_DEPLOYMENT) \
        if _DEPLOYMENT in service.broker.deployments() else None
    if acked_digest is not None and recovered != acked_digest:
        report.violations.append(
            f"recovery #{report.recoveries}: state digest mismatch "
            f"(acked {acked_digest[:12]}, recovered "
            f"{(recovered or 'missing')[:12]})")
    if last_commit is not None:
        _, protocol = _svc()
        retry = service.handle(
            protocol.DeltaRequest(**last_commit["request"]), timeout=60.0)
        if not (retry.ok and retry.served == "replay"):
            report.violations.append(
                f"recovery #{report.recoveries}: retried request_id "
                f"{last_commit['request'].get('request_id')} not "
                f"replayed (status={retry.status}, "
                f"served={retry.served})")
        elif retry.result.get("state_digest",
                              acked_digest) != acked_digest:
            report.violations.append(
                f"recovery #{report.recoveries}: replayed result "
                f"digest diverged")
    for name, health in sorted(service.broker.session_health().items()):
        if not health["alive"]:
            report.violations.append(
                f"recovery #{report.recoveries}: deployment {name!r} "
                f"has no live worker")


def _differential(config: ServiceChaosConfig, instance,
                  report: ServiceChaosReport) -> None:
    """Clean run of the identical op stream -- no journal, no crashes.

    Where the storm run must land if recovery lost nothing and doubled
    nothing.
    """
    daemon, _ = _svc()
    stream = _OpStream(instance, config.seed)
    with daemon.PlacementService(daemon.ServiceConfig(
            executor=config.executor)) as clean:
        deployed = _deploy(clean, instance)
        if not deployed.ok:
            report.violations.append("clean deploy failed")
            return
        for _ in range(config.operations):
            _apply_op(clean, stream.next_op())
        report.clean_digest = clean.broker.deployment_digest(_DEPLOYMENT)
    if report.final_digest and report.clean_digest \
            and report.final_digest != report.clean_digest:
        report.violations.append(
            f"differential mismatch: storm {report.final_digest[:12]} "
            f"!= clean {report.clean_digest[:12]}")
