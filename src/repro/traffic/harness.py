"""The churn harness: traffic in, deltas out, hit-rate and oracle back.

One ``run_churn`` call is a full closed loop: a seeded
:class:`~repro.traffic.generator.TrafficGenerator` replays packets
against the dataplane materialized from the *cached* deployment; per-
rule hit counters feed the
:class:`~repro.traffic.cache.RuleCacheController`; the controller's
promotion/eviction rounds issue batched deltas through a churn driver
(direct :class:`~repro.core.incremental.IncrementalDeployer`, or the
service's journaled delta path); after every round the structural
oracle re-checks the closure invariants and the per-packet oracle
compares each *hit* verdict against the full policy.

The report is what the benchmark and the CI gate consume: overall and
flash-window hit-rates, verdict/closure violation counts (the hard
zero gates), controller round stats, and deployment state digests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from ..core.incremental import IncrementalDeployer
from ..core.placement import Placement
from ..core.tags import synthesize
from ..dataplane.packet import Packet
from ..dataplane.switch import TableAction
from ..experiments.generators import ExperimentConfig, build_instance
from ..milp.model import SolveStatus
from ..policy.rule import Action
from .cache import (CacheConfig, LocalChurnDriver, RuleCacheController,
                    ServiceChurnDriver)
from .generator import TrafficConfig, TrafficGenerator

__all__ = ["ChurnConfig", "run_churn", "run_churn_matrix"]


@dataclass
class ChurnConfig:
    """One churn run: instance shape x traffic shape x cache policy."""

    seed: int = 0
    #: Traffic ticks to simulate.
    ticks: int = 96
    # Instance shape (fat-tree, one policy per edge switch).
    k: int = 4
    num_paths: int = 8
    rules_per_policy: int = 24
    #: Physical per-switch TCAM capacity.
    capacity: int = 48
    drop_fraction: float = 0.5
    nested_fraction: float = 0.5
    # Cache policy.
    budget: int = 12
    strategy: str = "popularity"
    half_life: float = 12.0
    control_interval: int = 4
    hysteresis: float = 1.25
    warmup_ticks: int = 12
    # Traffic shape.
    flows_per_ingress: int = 48
    packets_per_tick: int = 96
    zipf_skew: float = 1.2
    drift_period: int = 64
    flash_start: Optional[int] = 48
    flash_length: int = 24
    flash_flows: int = 4
    flash_boost: float = 40.0
    mean_flow_lifetime: int = 48
    rule_bias: float = 0.9
    #: Drive deltas through a service instead of a local deployer.
    service: bool = False
    backend: str = "highs"

    def traffic_config(self) -> TrafficConfig:
        return TrafficConfig(
            seed=self.seed,
            flows_per_ingress=self.flows_per_ingress,
            packets_per_tick=self.packets_per_tick,
            zipf_skew=self.zipf_skew,
            drift_period=self.drift_period,
            flash_start=self.flash_start,
            flash_length=self.flash_length,
            flash_flows=self.flash_flows,
            flash_boost=self.flash_boost,
            mean_flow_lifetime=self.mean_flow_lifetime,
            rule_bias=self.rule_bias,
        )

    def cache_config(self) -> CacheConfig:
        return CacheConfig(
            budget=self.budget,
            strategy=self.strategy,
            half_life=self.half_life,
            control_interval=self.control_interval,
            hysteresis=self.hysteresis,
            warmup_ticks=self.warmup_ticks,
        )

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            k=self.k, num_paths=self.num_paths,
            rules_per_policy=self.rules_per_policy,
            capacity=self.capacity, seed=self.seed,
            drop_fraction=self.drop_fraction,
            nested_fraction=self.nested_fraction,
        )


@dataclass
class _TickSample:
    tick: int
    packets: int = 0
    hits: int = 0
    flash: bool = False


def _empty_base(instance) -> Placement:
    """A feasible zero-policy placement over the instance's network.

    The churn loop starts cold: same topology, routing, and capacities,
    but nothing deployed -- every cached rule arrives as a delta.
    """
    from ..core.instance import PlacementInstance
    from ..policy.policy import PolicySet

    boot = PlacementInstance(instance.topology, instance.routing,
                             PolicySet(), dict(instance.capacities))
    return Placement(instance=boot, status=SolveStatus.FEASIBLE, placed={})


def run_churn(config: Optional[ChurnConfig] = None,
              service=None) -> Dict[str, Any]:
    """Run one churn loop; returns the JSON-able report.

    ``service`` (a :class:`~repro.service.daemon.PlacementService` or
    anything with a compatible ``handle``) switches delta issuing to
    the journaled service path with a digest-checked local shadow;
    ``config.service=True`` spins up a private in-process service.
    """
    config = config or ChurnConfig()
    instance = build_instance(config.experiment_config())
    policies = list(instance.policies)
    paths = {policy.ingress: instance.routing.paths(policy.ingress)
             for policy in policies}

    own_service = None
    if service is None and config.service:
        from ..service.daemon import PlacementService, ServiceConfig
        own_service = PlacementService(ServiceConfig(
            executor="inline", max_workers=2, dispatchers=1))
        service = own_service
    try:
        if service is not None:
            driver = ServiceChurnDriver.bootstrap(
                lambda request, timeout: service.handle(request,
                                                        timeout=timeout),
                instance, deployment=f"churn-{config.seed}",
                backend=config.backend)
        else:
            driver = LocalChurnDriver(IncrementalDeployer(
                _empty_base(instance)))

        controller = RuleCacheController(policies, paths,
                                         config.cache_config())
        generator = TrafficGenerator(policies, instance.routing,
                                     config.traffic_config())
        policy_of = {policy.ingress: policy for policy in policies}

        samples: List[_TickSample] = []
        verdict_violations: List[str] = []
        closure_violations: List[str] = []
        # Cold start: nothing cached, everything falls through.
        dataplane = synthesize(driver.as_placement())

        for _ in range(config.ticks):
            batch = generator.tick()
            sample = _TickSample(tick=generator.current_tick - 1,
                                 flash=generator.flash_active(
                                     generator.current_tick - 1))
            for pkt in batch:
                policy = policy_of[pkt.ingress]
                tag = dataplane.ingress_tags.get(pkt.ingress)
                packet = Packet(pkt.header, pkt.width, tag)
                matched = False
                dropped = False
                for switch in pkt.path.switches:
                    table = dataplane.tables.get(switch)
                    if table is None:
                        continue
                    entry = table.matching_entry(packet)
                    if entry is None:
                        continue
                    matched = True
                    if entry.action is TableAction.DROP:
                        dropped = True
                        break
                expected = policy.evaluate(pkt.header)
                sample.packets += 1
                if matched:
                    sample.hits += 1
                    actual = Action.DROP if dropped else Action.PERMIT
                    if actual is not expected:
                        verdict_violations.append(
                            f"tick {sample.tick} {pkt.ingress} "
                            f"0x{pkt.header:x}: cache says {actual.value}, "
                            f"policy says {expected.value}")
                # Misses fall through to the controller slow path, which
                # evaluates the full policy: correct by construction.
                first = policy.matching_rule(pkt.header)
                if first is not None:
                    controller.observe(pkt.ingress, first.priority)
            samples.append(sample)
            round_stats = controller.tick(driver)
            if round_stats is not None:
                closure_violations.extend(controller.verify(driver))
                dataplane = synthesize(driver.as_placement())

        return _report(config, controller, driver, samples,
                       verdict_violations, closure_violations)
    finally:
        if own_service is not None:
            own_service.close()


def _hit_rate(samples: Sequence[_TickSample]) -> float:
    packets = sum(s.packets for s in samples)
    hits = sum(s.hits for s in samples)
    return hits / packets if packets else 0.0


def _report(config: ChurnConfig, controller: RuleCacheController,
            driver, samples: List[_TickSample],
            verdict_violations: List[str],
            closure_violations: List[str]) -> Dict[str, Any]:
    flash = [s for s in samples if s.flash]
    post_warmup = [s for s in samples if s.tick >= config.warmup_ticks]
    report: Dict[str, Any] = {
        "config": asdict(config),
        "packets": sum(s.packets for s in samples),
        "hit_rate": _hit_rate(samples),
        "hit_rate_steady": _hit_rate(post_warmup),
        "hit_rate_flash": _hit_rate(flash) if flash else None,
        "verdict_violations": len(verdict_violations),
        "closure_violations": len(closure_violations),
        "violation_examples": (verdict_violations + closure_violations)[:5],
        "rounds": len(controller.rounds),
        "promotions": sum(r.promotions for r in controller.rounds),
        "evictions": sum(r.evictions for r in controller.rounds),
        "deltas": sum(r.deltas for r in controller.rounds),
        "trims": sum(r.trims for r in controller.rounds),
        "cached_rules": controller.cached_rule_count(),
        "state_digest": driver.state_digest(),
    }
    mismatches = getattr(driver, "digest_mismatches", None)
    if mismatches is not None:
        report["digest_mismatches"] = len(mismatches)
    return report


def run_churn_matrix(config: Optional[ChurnConfig] = None,
                     seeds: Sequence[int] = range(8)) -> Dict[str, Any]:
    """The seed-matrix oracle run: zero violations across every seed.

    This is the CI gate's entry point (``repro churn --seeds`` sets the
    matrix width): each seed reshapes the instance, the policies, and
    the traffic, and every run must finish with zero verdict and zero
    closure violations.
    """
    config = config or ChurnConfig()
    runs: List[Dict[str, Any]] = []
    for seed in seeds:
        report = run_churn(replace(config, seed=seed))
        runs.append({
            "seed": seed,
            "hit_rate": report["hit_rate"],
            "verdict_violations": report["verdict_violations"],
            "closure_violations": report["closure_violations"],
            "digest_mismatches": report.get("digest_mismatches", 0),
            "deltas": report["deltas"],
        })
    violations = sum(r["verdict_violations"] + r["closure_violations"]
                     for r in runs)
    return {
        "seeds": len(runs),
        "total_violations": violations,
        "digest_mismatches": sum(r["digest_mismatches"] for r in runs),
        "mean_hit_rate": (sum(r["hit_rate"] for r in runs) / len(runs)
                          if runs else 0.0),
        "runs": runs,
    }
