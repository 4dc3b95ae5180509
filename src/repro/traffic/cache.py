"""TCAM-as-a-cache: the promotion/eviction controller and its oracle.

FDRC's framing: switch TCAM is too scarce for the whole rule set, so
treat it as a *cache* -- install the rules hot traffic actually hits,
answer the rest from the controller slow path (default-route
fallthrough).  The semantics only survive partial installation because
of two invariants this module owns:

**The caching dependency closure.**  A cached rule is safe to answer
from only when every *transitively* reachable higher-priority
overlapping rule with a different action is cached too
(:func:`repro.core.depgraph.caching_closures`).  Eq. 1 stops at a
DROP's direct PERMIT shields; a cache must also carry the even-higher
DROPs that carve into each shield, or a packet in the ancestor's region
gets the shield's verdict.  Cacheable *units* are therefore a DROP plus
its full ancestor closure, promoted and evicted atomically.

**Fallthrough on miss.**  A packet matching no cached entry anywhere on
its path is answered by the controller from the full policy
(``policy.evaluate``) -- correct by construction, just slow.  Together
with ancestor-closed cached sets and the deployer's per-switch Eq. 1
co-location, every *hit* verdict equals the full-policy verdict: a
different-action ancestor is always cached (closure) and dropping
anywhere on the path wins, so a shield PERMIT firing on one switch
cannot outrun a cached ancestor DROP further along.  Pure PERMITs need
no caching at all under a PERMIT default -- only drop regions and their
shields occupy TCAM, exactly like the underlying placement model.

:func:`closure_violations` is the structural oracle the churn harness
gates on; :class:`RuleCacheController` runs the scoring/greedy
selection loop; the two drivers issue the resulting batched deltas
through :class:`~repro.core.incremental.IncrementalDeployer` directly
(:class:`LocalChurnDriver`) or through the service's journaled delta
path with a digest-checked local shadow (:class:`ServiceChurnDriver`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.depgraph import build_dependency_graph, caching_closures
from ..core.incremental import IncrementalDeployer
from ..net.routing import Path
from ..policy.policy import Policy
from ..policy.rule import Rule
from .counters import PopularityTracker

__all__ = [
    "CacheConfig",
    "LocalChurnDriver",
    "RuleCacheController",
    "ServiceChurnDriver",
    "cacheable_units",
    "closure_violations",
]

STRATEGIES = ("popularity", "lru", "lfu", "static")


@dataclass
class CacheConfig:
    """Knobs of the eviction/promotion loop."""

    #: Max cached rules per ingress (the per-edge TCAM budget the
    #: controller aims for; real switch capacity is still enforced by
    #: the deployer, with trim-and-retry on infeasible previews).
    budget: int = 16
    #: Scoring strategy: ``popularity`` (EWMA), ``lru`` (last hit),
    #: ``lfu`` (cumulative count), ``static`` (top-k frozen after
    #: warmup).  All four share the same closure-aware unit machinery,
    #: so the comparison isolates the *scoring* policy.
    strategy: str = "popularity"
    #: EWMA half-life in ticks (``popularity`` only).
    half_life: float = 16.0
    #: Ticks between controller rounds.
    control_interval: int = 4
    #: Score bonus multiplier for already-cached units (anti-thrash).
    hysteresis: float = 1.25
    #: Tick at which ``static`` freezes its ranking.
    warmup_ticks: int = 8
    #: Space-saving sketch capacity per ingress.
    monitored: int = 1024

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; known: {STRATEGIES}")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.control_interval < 1:
            raise ValueError("control_interval must be >= 1")


def cacheable_units(policy: Policy) -> Dict[int, FrozenSet[int]]:
    """Atomic promotion units: each DROP plus its ancestor closure.

    Only drop-anchored units exist: under a PERMIT default a permit
    that shields no cached drop is dataplane-inert, so the cache never
    spends TCAM on one.  Unit membership is ancestor-closed by
    construction (the closure relation is transitive), hence any union
    of units is ancestor-closed -- the invariant
    :func:`closure_violations` checks.
    """
    closures = caching_closures(policy)
    return {
        rule.priority: frozenset((rule.priority,) + closures[rule.priority])
        for rule in policy.rules if rule.is_drop
    }


def closure_violations(policy: Policy,
                       cached: FrozenSet[int],
                       placed: Dict[Tuple[str, int], FrozenSet[str]],
                       paths: Sequence[Path]) -> List[str]:
    """Structural oracle over one ingress's cached deployment.

    Returns human-readable violation strings (empty = safe):

    1. *Ancestor closure*: the cached set contains every transitive
       different-action ancestor of each of its members.
    2. *Per-path drop coverage*: every cached DROP relevant to a path
       (overlapping its flow slice, or all when unsliced) is installed
       on at least one switch of that path.
    3. *Per-switch shield co-location* (Eq. 1): wherever a DROP is
       installed, its cached PERMIT shields sit on the same switch.
    """
    violations: List[str] = []
    closures = caching_closures(policy)
    for priority in sorted(cached):
        missing = [a for a in closures.get(priority, ()) if a not in cached]
        if missing:
            violations.append(
                f"{policy.ingress}: rule {priority} cached without "
                f"ancestors {missing}")

    cached_rules = {p: policy.rule_by_priority(p) for p in cached}
    drops = {p: r for p, r in cached_rules.items() if r.is_drop}
    switches_of = {
        priority: placed.get((policy.ingress, priority), frozenset())
        for priority in cached
    }
    for path in paths:
        on_path = set(path.switches)
        for priority, rule in sorted(drops.items()):
            if path.flow is not None and not rule.match.intersects(path.flow):
                continue
            if not (switches_of[priority] & on_path):
                violations.append(
                    f"{policy.ingress}: drop {priority} not installed on "
                    f"path {'->'.join(path.switches)}")

    graph = build_dependency_graph(policy)
    for priority, rule in sorted(drops.items()):
        shields = [d for d in graph.dependencies_of(priority) if d in cached]
        for switch in sorted(switches_of[priority]):
            for shield in shields:
                if switch not in switches_of[shield]:
                    violations.append(
                        f"{policy.ingress}: drop {priority} on {switch} "
                        f"without shield {shield}")
    return violations


# ---------------------------------------------------------------------------
# Churn drivers: how controller decisions become deployed deltas
# ---------------------------------------------------------------------------


class LocalChurnDriver:
    """Apply cache deltas straight onto an :class:`IncrementalDeployer`.

    The preview/commit split is preserved: an infeasible preview leaves
    the deployed state untouched and reports ``False`` so the
    controller can trim its selection and retry.
    """

    def __init__(self, deployer: IncrementalDeployer) -> None:
        self.deployer = deployer

    def apply(self, ingress: str, cached_policy: Optional[Policy],
              paths: Sequence[Path]) -> bool:
        deployer = self.deployer
        if cached_policy is None or not cached_policy.rules:
            if deployer.has_policy(ingress):
                deployer.remove_policy(ingress)
            return True
        if not deployer.has_policy(ingress):
            result = deployer.preview_install(cached_policy, paths)
            if not result.is_feasible:
                return False
            deployer.commit_install(cached_policy, paths, result.placed)
            return True
        result = deployer.preview_modify(cached_policy)
        if not result.is_feasible:
            return False
        deployer.apply_modify(cached_policy, result.placed)
        return True

    def placed_of(self, ingress: str) -> Dict[Tuple[str, int], FrozenSet[str]]:
        if not self.deployer.has_policy(ingress):
            return {}
        return self.deployer.placed_of(ingress)

    def as_placement(self):
        return self.deployer.as_placement()

    def state_digest(self) -> str:
        return self.deployer.state_digest()


class ServiceChurnDriver:
    """Route cache deltas through the service's journaled delta path.

    Every promotion/eviction becomes a :class:`DeltaRequest` against a
    named deployment, so sessions, the write-ahead journal, and
    the metrics all see the churn.  A local *shadow* deployer applies
    the same operations in lock-step; after each committed delta the
    service's returned ``state_digest`` must equal the shadow's --
    the same oracle the crash-recovery harness uses -- which both
    verifies the service and gives the harness a dataplane to replay
    packets against without round-tripping table state.
    """

    def __init__(self, handle, deployment: str,
                 shadow: IncrementalDeployer,
                 timeout: float = 60.0) -> None:
        #: ``handle(request, timeout) -> Response`` -- an in-process
        #: ``PlacementService.handle`` or a ``ServiceClient.call``.
        self._handle = handle
        self.deployment = deployment
        self.shadow = shadow
        self.timeout = timeout
        self.digest_mismatches: List[str] = []
        self._local = LocalChurnDriver(shadow)

    @classmethod
    def bootstrap(cls, handle, instance, deployment: str,
                  backend: str = "highs",
                  timeout: float = 60.0) -> "ServiceChurnDriver":
        """Create the named deployment from an empty-policy instance.

        The churn loop starts from a cold cache: solve (trivially) an
        instance with no policies, register it as a live deployment,
        and grow the cached state purely through deltas.
        """
        from ..core.instance import PlacementInstance
        from ..core.placement import Placement
        from ..milp.model import SolveStatus
        from ..policy.policy import PolicySet
        from ..service.protocol import SolveRequest

        boot = PlacementInstance(instance.topology, instance.routing,
                                 PolicySet(), dict(instance.capacities))
        response = handle(SolveRequest(instance=boot, backend=backend,
                                       deploy_as=deployment), timeout)
        if not response.ok:
            raise RuntimeError(
                f"churn bootstrap failed: {response.status} "
                f"{response.error or ''}")
        base = Placement(instance=boot, status=SolveStatus.FEASIBLE,
                         placed={})
        return cls(handle, deployment, IncrementalDeployer(base),
                   timeout=timeout)

    def apply(self, ingress: str, cached_policy: Optional[Policy],
              paths: Sequence[Path]) -> bool:
        from .. import io as repro_io
        from ..net.routing import Routing
        from ..service.protocol import DeltaRequest, ResponseStatus

        shadow = self.shadow
        if cached_policy is None or not cached_policy.rules:
            if not shadow.has_policy(ingress):
                return True
            request = DeltaRequest(deployment=self.deployment, op="remove",
                                   ingress=ingress)
        elif not shadow.has_policy(ingress):
            request = DeltaRequest(
                deployment=self.deployment, op="install",
                policy=repro_io.policy_to_dict(cached_policy),
                paths=repro_io.routing_to_dict(Routing(paths)),
            )
        else:
            request = DeltaRequest(
                deployment=self.deployment, op="modify",
                policy=repro_io.policy_to_dict(cached_policy),
            )
        response = self._handle(request, self.timeout)
        if response.status == ResponseStatus.INFEASIBLE:
            return False
        if not response.ok:
            raise RuntimeError(
                f"delta {request.op} on {ingress!r} failed: "
                f"{response.status} {response.error or ''}")
        ok = self._local.apply(ingress, cached_policy, paths)
        if not ok:
            # The service committed but the shadow could not: the two
            # have diverged and every later digest check is noise.
            raise RuntimeError(
                f"shadow infeasible after service commit on {ingress!r}")
        remote = (response.result or {}).get("state_digest")
        local = shadow.state_digest()
        if remote is not None and remote != local:
            self.digest_mismatches.append(
                f"{request.op}:{ingress}: service {remote[:12]} != "
                f"shadow {local[:12]}")
        return True

    def placed_of(self, ingress: str) -> Dict[Tuple[str, int], FrozenSet[str]]:
        return self._local.placed_of(ingress)

    def as_placement(self):
        return self.shadow.as_placement()

    def state_digest(self) -> str:
        return self.shadow.state_digest()


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


@dataclass
class RoundStats:
    """What one control round did."""

    tick: int
    promotions: int = 0
    evictions: int = 0
    deltas: int = 0
    trims: int = 0
    cached_rules: int = 0


class RuleCacheController:
    """Popularity-aware eviction/promotion over the cached rule sets.

    Scores the full policy's rules from observed traffic, greedily
    packs whole closure units under the per-ingress budget (marginal
    gain per marginal slot, hysteresis for incumbents), and issues the
    resulting batched deltas through a churn driver.  An infeasible
    preview (switch capacity, not budget) trims the weakest selected
    unit and retries, so the controller degrades gracefully when the
    physical TCAM is tighter than its budget.
    """

    def __init__(self, policies: Sequence[Policy],
                 routing_paths: Dict[str, Sequence[Path]],
                 config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self._policies: Dict[str, Policy] = {
            policy.ingress: policy for policy in policies
        }
        self._paths = {
            ingress: tuple(routing_paths[ingress])
            for ingress in self._policies
        }
        self._units: Dict[str, Dict[int, FrozenSet[int]]] = {
            ingress: cacheable_units(policy)
            for ingress, policy in self._policies.items()
        }
        self._trackers: Dict[str, PopularityTracker] = {
            ingress: PopularityTracker(self.config.half_life,
                                       self.config.monitored)
            for ingress in self._policies
        }
        self._cached: Dict[str, FrozenSet[int]] = {
            ingress: frozenset() for ingress in self._policies
        }
        #: ``static`` ranking, frozen at ``warmup_ticks``.
        self._frozen_scores: Optional[Dict[str, Dict[int, float]]] = None
        self._tick = 0
        self.rounds: List[RoundStats] = []

    # -- observation ---------------------------------------------------

    def observe(self, ingress: str, priority: int) -> None:
        """Account one packet to its first-match rule.

        Fed from both sides of the cache: switch per-entry counters for
        hits, the controller's own punt stream for misses -- idealized
        here as the full policy's first-match priority.
        """
        self._trackers[ingress].record(priority)

    def cached_set(self, ingress: str) -> FrozenSet[int]:
        return self._cached[ingress]

    def cached_rule_count(self) -> int:
        return sum(len(s) for s in self._cached.values())

    @property
    def current_tick(self) -> int:
        return self._tick

    # -- scoring -------------------------------------------------------

    def _score(self, ingress: str, priority: int) -> float:
        tracker = self._trackers[ingress]
        strategy = self.config.strategy
        if strategy == "popularity":
            return tracker.score(priority)
        if strategy == "lfu":
            return float(tracker.count(priority))
        if strategy == "lru":
            last = tracker.last_seen(priority)
            # +1 so a rule hit at tick 0 still outranks one never hit.
            return 0.0 if last is None else float(last + 1)
        # static: cumulative counts frozen at the warmup boundary.
        if self._frozen_scores is not None:
            return self._frozen_scores[ingress].get(priority, 0.0)
        return float(tracker.count(priority))

    def _maybe_freeze(self) -> None:
        if (self.config.strategy == "static"
                and self._frozen_scores is None
                and self._tick >= self.config.warmup_ticks):
            self._frozen_scores = {
                ingress: {
                    rule.priority: float(
                        self._trackers[ingress].count(rule.priority))
                    for rule in policy.rules
                }
                for ingress, policy in self._policies.items()
            }

    # -- selection -----------------------------------------------------

    def _select(self, ingress: str,
                budget: int,
                excluded: FrozenSet[int] = frozenset()
                ) -> Tuple[FrozenSet[int], List[int]]:
        """Greedy unit packing under ``budget`` cached rules.

        Returns the selected rule set and the anchor drops in pick
        order (weakest last -- the trim order on infeasible previews).
        Marginal-gain greedy: shared closure members make later units
        cheaper, so ratios are recomputed against the running set.
        """
        units = {
            anchor: members
            for anchor, members in self._units[ingress].items()
            if anchor not in excluded
        }
        incumbent = self._cached[ingress]
        selected: set = set()
        order: List[int] = []
        remaining = dict(units)
        while remaining:
            best_anchor = None
            best_rank: Tuple[float, int] = (0.0, 0)
            for anchor, members in remaining.items():
                new = members - selected
                cost = len(new)
                if cost == 0:
                    # Fully absorbed by earlier picks: claim for free.
                    best_anchor, best_rank = anchor, (float("inf"), -anchor)
                    break
                if len(selected) + cost > budget:
                    continue
                gain = sum(self._score(ingress, p) for p in members)
                if anchor in incumbent and members <= incumbent:
                    gain *= self.config.hysteresis
                rank = (gain / cost, -anchor)
                if best_anchor is None or rank > best_rank:
                    best_anchor, best_rank = anchor, rank
            if best_anchor is None:
                break
            members = remaining.pop(best_anchor)
            if best_rank[0] <= 0.0:
                # Zero-score unit: caching cold rules buys nothing.
                continue
            selected |= members
            order.append(best_anchor)
        return frozenset(selected), order

    def _cached_policy(self, ingress: str,
                       selected: FrozenSet[int]) -> Optional[Policy]:
        if not selected:
            return None
        policy = self._policies[ingress]
        rules: List[Rule] = [rule for rule in policy.sorted_rules()
                             if rule.priority in selected]
        return Policy(ingress=ingress, rules=rules,
                      default_action=policy.default_action)

    # -- the control round ---------------------------------------------

    def tick(self, driver=None) -> Optional[RoundStats]:
        """Advance controller time; run a control round when due.

        Called once per traffic tick.  Returns the round's stats when a
        round ran, else ``None``.
        """
        self._tick += 1
        for tracker in self._trackers.values():
            tracker.tick()
        self._maybe_freeze()
        if driver is None or self._tick % self.config.control_interval:
            return None
        return self.control_round(driver)

    def control_round(self, driver) -> RoundStats:
        stats = RoundStats(tick=self._tick)
        for ingress in sorted(self._policies):
            excluded: set = set()
            while True:
                selected, order = self._select(
                    ingress, self.config.budget, frozenset(excluded))
                if selected == self._cached[ingress]:
                    break
                cached_policy = self._cached_policy(ingress, selected)
                if driver.apply(ingress, cached_policy,
                                self._paths[ingress]):
                    old = self._cached[ingress]
                    stats.promotions += len(selected - old)
                    stats.evictions += len(old - selected)
                    stats.deltas += 1
                    self._cached[ingress] = selected
                    break
                # Physical capacity tighter than the budget: drop the
                # weakest unit (last pick) and retry the preview.
                if not order:
                    break
                excluded.add(order[-1])
                stats.trims += 1
        stats.cached_rules = self.cached_rule_count()
        self.rounds.append(stats)
        return stats

    # -- oracle --------------------------------------------------------

    def verify(self, driver) -> List[str]:
        """Run the structural oracle over every ingress's cached state."""
        violations: List[str] = []
        for ingress, policy in sorted(self._policies.items()):
            violations.extend(closure_violations(
                policy, self._cached[ingress],
                driver.placed_of(ingress), self._paths[ingress]))
        return violations
