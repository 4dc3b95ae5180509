"""The benchmark's four workloads.

Each workload owns its seeded inputs and these phases:

* ``setup(client)`` -- daemon state needed before the first timed op
  (counted in ``setup_s``);
* ``prepare(index)`` then ``op(client, index, prepared)`` -- one op of
  the closed loop: ``prepare`` builds inputs off the clock, ``op`` times
  only the request (or control round) and then checks the answer;
* ``finish(client)`` -- the post-run gates;
* ``replay(rp, count, budget)`` -- the first ``count`` ops again, in
  this process and in spans (see ``replay.py``).  It returns per-layer
  values the spans cannot give and every place where the replay
  disagrees with what the daemon answered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro import io as repro_io
from repro.core.depgraph import clear_depgraph_cache
from repro.core.incremental import IncrementalDeployer
from repro.core.placement import RulePlacer
from repro.core.tags import synthesize
from repro.dataplane.packet import Packet
from repro.dataplane.switch import TableAction
from repro.experiments import build_instance
from repro.policy.rule import Action
from repro.service.protocol import (
    HealthRequest,
    MetricsRequest,
    ResponseStatus,
    SessionRequest,
    SolveRequest,
    VerifyRequest,
)
from repro.service.workers import SessionWorker
from repro.solve.session import SolverSession
from repro.traffic.cache import RuleCacheController, ServiceChurnDriver
from repro.traffic.generator import TrafficGenerator
from repro.traffic.harness import ChurnConfig

import inputs
from replay import ReplayChurnDriver, churn_delta, empty_base
from stats import Tracer, median

_OFF = Tracer(enabled=False)


class SetupError(RuntimeError):
    """The daemon refused the workload's set-up state."""


@dataclass
class OpOutcome:
    seconds: Optional[float]
    errors: List[str] = field(default_factory=list)


def _status(response) -> str:
    return f"{response.status} {response.error or ''}".strip()


def _timed_call(client, request, timeout: Optional[float] = None):
    begun = time.perf_counter()
    response = client.call(request, timeout=timeout)
    return response, time.perf_counter() - begun


def _greedy_share(methods: List[str]) -> float:
    """Share of deltas the deployer's greedy pass answered."""
    return sum(1 for m in methods if m == "greedy") / max(1, len(methods))


def _within(begun: float, budget: float, index: int) -> bool:
    """Replay at least one op, then stop once ``budget`` is spent."""
    return index == 0 or time.perf_counter() - begun < budget


class Workload:
    name = ""
    #: Ops every run makes, whatever ``--seconds`` says: the tail metric
    #: needs ten samples beyond its percentile, and twenty samples give
    #: at least the median that.
    min_ops = 20
    #: Split the ops among the run's daemons (see ``runner``).
    spread_ops = True
    #: Gates ``finish`` evaluates (they count as attempted checks).
    post_gates = 0
    #: Where time no span covers most likely goes; printed when
    #: ``unattributed_ms`` exceeds a tenth of the median op.
    suspected_gap = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, client) -> None:
        """Daemon state the ops need (none by default)."""

    def prepare(self, index: int) -> Any:
        return None

    def op(self, client, index: int, prepared: Any) -> OpOutcome:
        raise NotImplementedError

    def finish(self, client) -> List[str]:
        return []

    def installed_rules(self) -> float:
        raise NotImplementedError

    def daemon_layers(self) -> Dict[str, float]:
        """Per-layer values the daemon run itself observed."""
        return {}

    def replay(self, rp, count: int, budget: float
               ) -> Tuple[Dict[str, float], List[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# solve-fresh
# ---------------------------------------------------------------------------


class SolveFresh(Workload):
    """Distinct cold solves: nothing can be served from a cache."""

    name = "solve-fresh"
    post_gates = 1
    #: Enough for a p80 tail (ten beyond needs fifty ops).
    min_ops = 50
    suspected_gap = ("the front-end's event loop and parse-pool hand-offs "
                     "and the broker's dispatch thread, which no span "
                     "covers")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: op index -> installed rules of the daemon's answer.
        self.answers: Dict[int, int] = {}

    def instance(self, index: int):
        return inputs.make_instance(
            inputs.SOLVE_SHAPE, inputs.nth_seed(self.seed, "solve", index))

    def prepare(self, index: int):
        instance = self.instance(index)
        return instance, {p.ingress: inputs.shield_map(p)
                          for p in instance.policies}

    def op(self, client, index, prepared) -> OpOutcome:
        instance, shields = prepared
        response, seconds = _timed_call(client, SolveRequest(instance=instance))
        if not response.ok:
            return OpOutcome(seconds, [f"solve {index}: {_status(response)}"])
        if response.served != "solved":
            return OpOutcome(seconds, [f"solve {index}: served "
                                       f"{response.served!r}, not solved"])
        result = response.result
        self.answers[index] = result["installed_rules"]
        errors = inputs.check_answer(instance, result["placement"]["placed"],
                                     shields)
        return OpOutcome(seconds, [f"solve {index}: {e}" for e in errors[:3]])

    def finish(self, client) -> List[str]:
        cache = client.call(MetricsRequest()).result["metrics"]["cache"]
        if cache["hits"]:
            return [f"{cache['hits']} result-cache hits on distinct instances"]
        return []

    def installed_rules(self) -> float:
        return float(sum(self.answers.get(i, 0)
                         for i in range(self.min_ops)))

    def replay(self, rp, count, budget):
        errors: List[str] = []
        begun = time.perf_counter()
        for index in range(count):
            if not _within(begun, budget, index):
                break
            payload = rp.solve(SolveRequest(instance=self.instance(index)))
            expected = self.answers.get(index)
            if expected is not None and payload["installed_rules"] != expected:
                errors.append(f"replayed solve {index} installs "
                              f"{payload['installed_rules']} rules, the "
                              f"daemon's {expected}")
        return {}, errors


# ---------------------------------------------------------------------------
# delta-10k
# ---------------------------------------------------------------------------


class Delta10k(Workload):
    """Reroutes and modifies against a warm 10k-rule deployment."""

    name = "delta-10k"
    post_gates = 1
    DEPLOYMENT = "bench"
    suspected_gap = ("the broker's per-deployment lock and dispatch, and "
                     "the front-end's hand-offs around the session "
                     "worker's two pipe round trips")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.instance = inputs.make_instance(
            inputs.DELTA_SHAPE, inputs.nth_seed(inputs.FAMILY, "delta", 0))
        self.stream = inputs.DeltaStream(self.instance, seed)
        self.ops: List[inputs.DeltaOp] = []
        self.applied: List[bool] = []
        self.digests: Dict[int, str] = {}
        self.methods: List[str] = []
        self.session: Dict[str, Any] = {}
        self.installed = 0.0
        self.base: Optional[Dict[str, Any]] = None
        #: First op on the current daemon, whose deployment starts from
        #: the freshly solved base.
        self._first = 0

    def setup(self, client) -> None:
        self._first = len(self.ops)
        solved = client.call(SolveRequest(instance=self.instance,
                                          deploy_as=self.DEPLOYMENT),
                             timeout=600.0)
        if not solved.ok:
            raise SetupError(f"10k-rule deployment: {_status(solved)}")
        attached = client.call(SessionRequest(deployment=self.DEPLOYMENT,
                                              op="attach"))
        if not attached.ok:
            raise SetupError(f"session attach: {_status(attached)}")
        self.base = solved.result["placement"]

    def prepare(self, index: int) -> inputs.DeltaOp:
        op = self.stream.next()
        self.ops.append(op)
        self.applied.append(False)
        return op

    def op(self, client, index, op) -> OpOutcome:
        response, seconds = _timed_call(client, op.request(self.DEPLOYMENT))
        if not response.ok:
            return OpOutcome(seconds, [f"{op.op} {index}: {_status(response)}"])
        self.applied[index] = True
        result = response.result
        self.digests[index] = result["state_digest"]
        self.methods.append(result["method"])
        if index + 1 == self.min_ops:
            self.installed = float(result["total_installed"])
        if response.served != "session":
            return OpOutcome(seconds, [f"{op.op} {index}: served "
                                       f"{response.served!r}, not by the "
                                       f"warm session"])
        return OpOutcome(seconds)

    def finish(self, client) -> List[str]:
        health = client.call(HealthRequest(deep=True), timeout=60.0)
        remote = ((health.result or {}).get("state_digests") or {}).get(
            self.DEPLOYMENT)
        status = client.call(SessionRequest(deployment=self.DEPLOYMENT,
                                            op="status"))
        self.session = (status.result or {}).get("session") or {}
        shadow = IncrementalDeployer(
            repro_io.placement_from_dict(self.base, self.instance))
        for index in range(self._first, len(self.ops)):
            op = self.ops[index]
            if self.applied[index] and not op.apply(shadow).is_feasible:
                return [f"shadow deployer could not replay {op.op} {index}"]
        if remote != shadow.state_digest():
            return ["deep-health state digest differs from the shadow "
                    "deployer's after the same ops"]
        return []

    def installed_rules(self) -> float:
        return self.installed

    def daemon_layers(self) -> Dict[str, float]:
        return {
            "incremental.greedy_share": _greedy_share(self.methods),
            "session.warm_hits": float(self.session.get("warm_hits", 0)),
            "session.fallbacks": float(self.session.get("fallbacks", 0)),
        }

    def replay(self, rp, count, budget):
        deployer = IncrementalDeployer(
            repro_io.placement_from_dict(self.base, self.instance))
        deployer.attach_session(SolverSession())
        rp.record_deploy(self.DEPLOYMENT, self.instance, self.base,
                         session=True)
        worker = SessionWorker(deployer, executor="process")
        errors: List[str] = []
        begun = time.perf_counter()
        try:
            for index, op in enumerate(self.ops[:count]):
                if not _within(begun, budget, index):
                    break
                if not self.applied[index]:
                    continue
                digest, _method = rp.session_delta(
                    op.request(self.DEPLOYMENT), deployer, worker,
                    self.DEPLOYMENT)
                if digest != self.digests.get(index):
                    errors.append(f"replay diverged from the daemon at "
                                  f"{op.op} {index}")
                    break
        finally:
            worker.close()
        return {}, errors


# ---------------------------------------------------------------------------
# cache-churn
# ---------------------------------------------------------------------------


class SettledChurnDriver(ServiceChurnDriver):
    """:class:`ServiceChurnDriver` with its shadow oracle off the clock.

    ``apply`` sends the delta and remembers the answer; :meth:`settle`
    then replays the accepted deltas on the shadow deployer and compares
    state digests, exactly as the parent class does inline.  The
    controller reads placements only after a round, so settling between
    the round and the next read is equivalent.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending: List[Tuple[str, Any, Tuple, str, Optional[str]]] = []
        self._deployed: set = set()
        #: How each accepted install or modify was answered.
        self.methods: List[str] = []

    def apply(self, ingress, cached_policy, paths) -> bool:
        # Whether the service holds the ingress is tracked here: the
        # shadow lags until the round settles.
        request = churn_delta(self.deployment, ingress, cached_policy, paths,
                              ingress in self._deployed)
        if request is None:
            return True
        response = self._handle(request, self.timeout)
        if response.status == ResponseStatus.INFEASIBLE:
            return False
        if not response.ok:
            raise RuntimeError(f"delta {request.op} on {ingress!r} failed: "
                               f"{_status(response)}")
        if request.op == "remove":
            self._deployed.discard(ingress)
        else:
            self._deployed.add(ingress)
            self.methods.append((response.result or {}).get("method", ""))
        self._pending.append((ingress, cached_policy, tuple(paths),
                              request.op,
                              (response.result or {}).get("state_digest")))
        return True

    def settle(self) -> None:
        pending, self._pending = self._pending, []
        for ingress, policy, paths, op, remote in pending:
            if not self._local.apply(ingress, policy, paths):
                self.digest_mismatches.append(
                    f"{op}:{ingress}: shadow infeasible after service commit")
                continue
            local = self.shadow.state_digest()
            if remote is not None and remote != local:
                self.digest_mismatches.append(
                    f"{op}:{ingress}: service {remote[:12]} != shadow "
                    f"{local[:12]}")


class ChurnLoop:
    """``repro.traffic.harness.run_churn``'s closed loop, one control
    interval per :meth:`round`: the interval's traffic ticks (packets
    walked through the cached dataplane, first matches observed), the
    control round issuing deltas through the driver, and the new
    dataplane.  Hit verdicts are handed back for the oracle instead of
    being checked inline, so the oracle stays off the clock."""

    def __init__(self, config: ChurnConfig, instance, driver) -> None:
        policies = list(instance.policies)
        self.policy_of = {p.ingress: p for p in policies}
        paths = {p.ingress: instance.routing.paths(p.ingress)
                 for p in policies}
        self.controller = RuleCacheController(policies, paths,
                                              config.cache_config())
        self.generator = TrafficGenerator(policies, instance.routing,
                                          config.traffic_config())
        self.interval = config.control_interval
        self.driver = driver
        self.dataplane = synthesize(driver.as_placement())
        self.packets = 0
        self.hits = 0

    def round(self, tracer: Tracer, settle):
        """Returns the round's seconds (``settle`` excluded), the hit
        verdicts and the controller's round stats."""
        verdicts: List[Tuple[str, int, bool]] = []
        begun = time.perf_counter()
        with tracer.span("traffic.observe"):
            for step in range(self.interval):
                self._traffic(verdicts)
                if step < self.interval - 1:
                    self.controller.tick()
        with tracer.span("traffic.select"):
            stats = self.controller.tick(self.driver)
        seconds = time.perf_counter() - begun
        settle()
        begun = time.perf_counter()
        with tracer.span("tags.synthesize"):
            self.dataplane = synthesize(self.driver.as_placement())
        return seconds + time.perf_counter() - begun, verdicts, stats

    def _traffic(self, verdicts: List[Tuple[str, int, bool]]) -> None:
        dataplane = self.dataplane
        for pkt in self.generator.tick():
            packet = Packet(pkt.header, pkt.width,
                            dataplane.ingress_tags.get(pkt.ingress))
            matched = dropped = False
            for switch in pkt.path.switches:
                table = dataplane.tables.get(switch)
                entry = None if table is None else table.matching_entry(packet)
                if entry is None:
                    continue
                matched = True
                if entry.action is TableAction.DROP:
                    dropped = True
                    break
            self.packets += 1
            if matched:
                self.hits += 1
                verdicts.append((pkt.ingress, pkt.header, dropped))
            first = self.policy_of[pkt.ingress].matching_rule(pkt.header)
            if first is not None:
                self.controller.observe(pkt.ingress, first.priority)

    def violations(self, verdicts) -> List[str]:
        """The verdict oracle (every hit equals the full policy) and the
        closure oracle over the cached state."""
        found = []
        for ingress, header, dropped in verdicts:
            expected = self.policy_of[ingress].evaluate(header)
            if (Action.DROP if dropped else Action.PERMIT) is not expected:
                found.append(f"{ingress} 0x{header:x}: cache says "
                             f"{'drop' if dropped else 'permit'}, policy "
                             f"says {expected.value}")
        return found + self.controller.verify(self.driver)


class CacheChurn(Workload):
    """The TCAM-as-a-cache control loop over the connection."""

    name = "cache-churn"
    DEPLOYMENT = "churn"
    #: Each daemon would restart the cache cold, and cold rounds send
    #: several installs each: split runs would time mostly warm-up.
    spread_ops = False
    suspected_gap = ("the client's socket round trips and the broker's "
                     "dispatch of each small delta, which no span covers")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # The config's seed drives the traffic; the network and policies
        # come from the fixed family.
        self.config = ChurnConfig(seed=inputs.nth_seed(seed, "churn", 0))
        self.instance = build_instance(replace(
            self.config, seed=inputs.nth_seed(inputs.FAMILY, "churn", 0),
        ).experiment_config())
        self.digests: Dict[int, str] = {}
        self.rounds = self.deltas = self.trims = 0
        self.installed = 0.0

    def setup(self, client) -> None:
        def handle(request, timeout):
            return client.call(request, timeout=timeout)

        try:
            self.driver = SettledChurnDriver.bootstrap(
                handle, self.instance, deployment=self.DEPLOYMENT)
        except RuntimeError as exc:
            raise SetupError(str(exc)) from None
        self.loop = ChurnLoop(self.config, self.instance, self.driver)
        self._seen = 0

    def op(self, client, index, prepared) -> OpOutcome:
        seconds, verdicts, stats = self.loop.round(_OFF, self.driver.settle)
        errors = self.loop.violations(verdicts)
        errors += self.driver.digest_mismatches[self._seen:]
        self._seen = len(self.driver.digest_mismatches)
        self.digests[index] = self.driver.state_digest()
        self.rounds += 1
        self.deltas += stats.deltas
        self.trims += stats.trims
        if index + 1 == self.min_ops:
            self.installed = float(self.driver.shadow.total_installed())
        return OpOutcome(seconds, [f"round {index}: {e}" for e in errors[:3]])

    def installed_rules(self) -> float:
        return self.installed

    def daemon_layers(self) -> Dict[str, float]:
        return {
            "incremental.greedy_share": _greedy_share(self.driver.methods),
            "traffic.deltas_per_round": self.deltas / max(1, self.rounds),
            "traffic.trim_ratio": self.trims / max(1, self.deltas + self.trims),
            "traffic.cache_hit_rate": self.loop.hits / max(1, self.loop.packets),
        }

    def replay(self, rp, count, budget):
        base = empty_base(self.instance)
        deployer = IncrementalDeployer(base)
        rp.record_deploy(self.DEPLOYMENT, base.instance,
                         repro_io.placement_to_dict(base), session=False)
        driver = ReplayChurnDriver(rp, deployer, self.DEPLOYMENT)
        loop = ChurnLoop(self.config, self.instance, driver)
        errors: List[str] = []
        begun = time.perf_counter()
        for index in range(count):
            if not _within(begun, budget, index):
                break
            with rp.tracer.span("op"):
                loop.round(rp.tracer, driver.settle)
            if driver.state_digest() != self.digests.get(index):
                errors.append(f"replay diverged from the daemon at round "
                              f"{index}")
                break
        return {}, errors


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------


class VerifySweep(Workload):
    """Intact and corrupted placements, alternating, through ``verify``."""

    name = "verify-sweep"
    INSTANCES = 16
    suspected_gap = ("the front-end's event loop and parse-pool hand-offs "
                     "and the broker's dispatch thread, which no span "
                     "covers")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.instances = inputs.verify_instances(self.INSTANCES)
        # The placements are inputs: solved here, off the daemon's
        # clock, since verification keeps no state in the daemon.
        self.placements = []
        for instance in self.instances:
            clear_depgraph_cache()
            self.placements.append(
                repro_io.placement_to_dict(RulePlacer().place(instance)))
        self._variants: Dict[Tuple[int, str], Dict[str, Any]] = {}

    def prepare(self, index: int):
        slot, kind = inputs.sweep_op(self.seed, index, self.INSTANCES)
        corrupted = kind != "intact"
        if (slot, kind) not in self._variants:
            placement = self.placements[slot]
            if corrupted:
                placement = inputs.corrupt(
                    self.instances[slot], placement, kind,
                    inputs.stream_rng(self.seed, f"corrupt:{slot}:{kind}"))
            self._variants[(slot, kind)] = placement
        return slot, self._variants[(slot, kind)], corrupted

    def op(self, client, index, prepared) -> OpOutcome:
        slot, placement, corrupted = prepared
        response, seconds = _timed_call(client, VerifyRequest(
            instance=self.instances[slot], placement=placement))
        if not response.ok:
            return OpOutcome(seconds, [f"verify {index}: {_status(response)}"])
        if bool(response.result["ok"]) == corrupted:
            verdict = ("corrupted placement accepted" if corrupted
                       else "intact placement rejected")
            return OpOutcome(seconds, [f"verify {index}: {verdict}"])
        return OpOutcome(seconds)

    def installed_rules(self) -> float:
        return float(sum(len(entry["switches"]) for placement in
                         self.placements for entry in placement["placed"]))

    def replay(self, rp, count, budget):
        errors: List[str] = []
        ratios: List[float] = []
        solve_seconds: Dict[int, float] = {}
        begun = time.perf_counter()
        for index in range(count):
            if not _within(begun, budget, index):
                break
            slot, placement, corrupted = self.prepare(index)
            instance = self.instances[slot]
            ok, seconds = rp.verify(VerifyRequest(instance=instance,
                                                  placement=placement))
            if ok == corrupted:
                errors.append(f"replayed verify {index} answered ok={ok}")
            if slot not in solve_seconds:
                clear_depgraph_cache()
                started = time.perf_counter()
                RulePlacer().place(instance)
                solve_seconds[slot] = time.perf_counter() - started
            ratios.append(seconds / solve_seconds[slot])
        return {"verify.to_solve_ratio": median(ratios)}, errors


WORKLOADS = {cls.name: cls for cls in
             (SolveFresh, Delta10k, CacheChurn, VerifySweep)}
