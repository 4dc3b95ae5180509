"""Seeded inputs of the four workloads and the benchmark's own checks.

Every input is a pure function of ``--seed`` and :data:`FAMILY`:
instance seeds and op streams come from ``random.Random`` instances
keyed by ``(seed, stream)`` strings, never from the clock.

The checks here (per-switch capacity, Eq. 1 shields, per-path drop
coverage) are written against raw ternary value/mask integers and share
no code with ``repro.core.verify`` or the dependency graph, so a defect
in the program's own checker cannot hide a wrong answer from the
benchmark.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro import io as repro_io
from repro.core.incremental import IncrementalDeployer, IncrementalResult
from repro.core.instance import PlacementInstance
from repro.experiments import ExperimentConfig, build_instance
from repro.net.routing import Path, Routing, ShortestPathRouter
from repro.policy.classbench import PolicyGenerator, PolicyGeneratorConfig
from repro.policy.policy import Policy
from repro.service.protocol import DeltaRequest

#: Instance shapes: fat-tree k=4, every host an ingress, two paths each.
#: A solve at 300 rules per policy takes about a second end to end and
#: one at 150 half that: too few samples per run for a tail above p50.
#: 100 rules (capacity scaled alike) give a p80 tail.
SOLVE_SHAPE = {"num_ingresses": 16, "rules_per_policy": 100,
               "num_paths": 32, "capacity": 235}
DELTA_SHAPE = {"num_ingresses": 16, "rules_per_policy": 625,
               "num_paths": 32, "capacity": 1200}
#: Verification cost has a heavy tail in the policy size: at 100 rules
#: per policy one instance in thirty takes over a second and some take
#: twenty.  At 40 and 60 rules the tail comes from policies whose drop
#: region splits into hundreds of cubes, so the sweep keeps only
#: instances whose every policy stays under ``VERIFY_PIECE_LIMIT``
#: pieces (see :func:`drop_pieces`), and corrupts only policies under
#: ``CORRUPT_PIECE_LIMIT``: a wrong answer makes the verifier diff two
#: regions of the corrupted policy, quadratic in their cube counts.  40
#: rules keep an op near 0.1 s, so a run has over a hundred of them.
VERIFY_SHAPE = {"num_ingresses": 16, "rules_per_policy": 40,
                "num_paths": 32, "capacity": 120}
VERIFY_PIECE_LIMIT = 300
CORRUPT_PIECE_LIMIT = 24

#: Above this many pieces the exact "does this drop own any header"
#: test gives up and treats the drop as not corruptible.
_REGION_PIECE_LIMIT = 2000

#: ``delta-10k``, ``cache-churn`` and ``verify-sweep`` run on one fixed
#: network and policy set each, drawn from this seed; ``--seed`` drives
#: their op streams (deltas, traffic, sweep order and corruptions).  Op
#: cost differs up to fivefold between instances of one shape, so a
#: per-seed instance would make a run measure which instance its seed
#: drew.  ``solve-fresh`` needs a new instance per op and draws them from
#: ``--seed``: its median spans dozens of instances.
FAMILY = 1


def stream_rng(seed: int, stream: str) -> random.Random:
    """An independent, reproducible generator per ``(seed, stream)``."""
    return random.Random(f"perfbench:{seed}:{stream}")


def nth_seed(seed: int, stream: str, index: int) -> int:
    """The ``index``-th instance seed of one stream (random access)."""
    return stream_rng(seed, f"{stream}:{index}").getrandbits(31)


def make_instance(shape: Dict[str, int], instance_seed: int
                  ) -> PlacementInstance:
    return build_instance(ExperimentConfig(seed=instance_seed, **shape))


def verify_instances(count: int) -> List[PlacementInstance]:
    """The first ``count`` instances of the family's verify stream whose
    every policy stays under ``VERIFY_PIECE_LIMIT`` drop-region pieces."""
    kept: List[PlacementInstance] = []
    index = 0
    while len(kept) < count:
        instance = make_instance(VERIFY_SHAPE,
                                 nth_seed(FAMILY, "verify", index))
        index += 1
        if all(drop_pieces(policy, VERIFY_PIECE_LIMIT) <= VERIFY_PIECE_LIMIT
               for policy in instance.policies):
            kept.append(instance)
    return kept


def sweep_op(seed: int, index: int, slots: int) -> Tuple[int, str]:
    """``(slot, kind)`` of op ``index`` of the verify sweep.

    Op ``2k`` checks a slot intact and op ``2k + 1`` the same slot
    corrupted.  Each pass visits every slot once in a seeded order; the
    corruption kind alternates per slot and per pass.
    """
    pass_no, within = divmod(index // 2, slots)
    order = stream_rng(seed, f"sweep:{pass_no}").sample(range(slots), slots)
    if index % 2 == 0:
        return order[within], "intact"
    return order[within], ("shield", "drop")[(within + pass_no) % 2]


# ---------------------------------------------------------------------------
# The benchmark's own checks
# ---------------------------------------------------------------------------


def _overlap(a, b) -> bool:
    """Two ternary cubes share a header iff no care bit disagrees."""
    return not ((a.value ^ b.value) & a.mask & b.mask)


Cube = Tuple[int, int]


def _cube(match) -> Cube:
    return match.value & match.mask, match.mask


def _minus(a: Cube, b: Cube) -> List[Cube]:
    """``a - b`` as disjoint ``(value, mask)`` cubes: one piece per care
    bit of ``b`` that ``a`` leaves free, disagreeing with ``b`` there and
    agreeing with it on the bits split before."""
    value, mask = a
    other_value, other_mask = b
    if (value ^ other_value) & mask & other_mask:
        return [a]
    pieces = []
    free = other_mask & ~mask
    while free:
        bit = 1 << (free.bit_length() - 1)
        free ^= bit
        pieces.append(((value & ~bit) | (~other_value & bit), mask | bit))
        value = (value & ~bit) | (other_value & bit)
        mask |= bit
    return pieces


def _subtract(region: List[Cube], cubes, limit: int) -> Optional[List[Cube]]:
    """``region`` minus every cube of ``cubes``, or ``None`` once it
    splits into more than ``limit`` pieces."""
    for cube in cubes:
        region = [piece for part in region for piece in _minus(part, cube)]
        if len(region) > limit:
            return None
    return region


def drop_pieces(policy: Policy, limit: int) -> int:
    """Disjoint cubes of the policy's drop region (each DROP minus the
    higher PERMITs), or ``limit + 1`` once there are more than ``limit``.
    A size measure of the region algebra's input that depends only on the
    policy, never on how the program under test computes regions."""
    total = 0
    permits: List[Cube] = []
    for rule in sorted(policy.rules, key=lambda r: -r.priority):
        if not rule.is_drop:
            permits.append(_cube(rule.match))
            continue
        region = _subtract([_cube(rule.match)], permits, limit - total)
        if region is None:
            return limit + 1
        total += len(region)
    return total


def shield_map(policy: Policy) -> Dict[int, Tuple[int, ...]]:
    """Eq. 1 written out: each DROP's higher-priority overlapping PERMITs."""
    shields: Dict[int, Tuple[int, ...]] = {}
    permits = []
    for rule in sorted(policy.rules, key=lambda r: -r.priority):
        if rule.is_drop:
            shields[rule.priority] = tuple(
                p.priority for p in permits if _overlap(p.match, rule.match))
        else:
            permits.append(rule)
    return shields


def check_answer(instance: PlacementInstance,
                 placed_entries: List[Dict[str, Any]],
                 shields: Dict[str, Dict[int, Tuple[int, ...]]]
                 ) -> List[str]:
    """Capacity, Eq. 1 shields and drop coverage of every (unsliced)
    path, for a wire placement's ``placed`` list."""
    placed = {(e["ingress"], e["priority"]): frozenset(e["switches"])
              for e in placed_entries}
    errors: List[str] = []
    loads = Counter(s for switches in placed.values() for s in switches)
    for switch, load in sorted(loads.items()):
        capacity = instance.capacities.get(switch)
        if capacity is None or load > capacity:
            errors.append(f"{switch}: {load} rules over capacity {capacity}")
    for policy in instance.policies:
        ingress = policy.ingress
        paths = instance.routing.paths(ingress)
        for drop, permits in shields[ingress].items():
            at = placed.get((ingress, drop), frozenset())
            for switch in at:
                for permit in permits:
                    if switch not in placed.get((ingress, permit), ()):
                        errors.append(f"{ingress}: drop {drop} on {switch} "
                                      f"without shield {permit}")
            for path in paths:
                if path.flow is None and not at.intersection(path.switches):
                    errors.append(f"{ingress}: drop {drop} missing on "
                                  f"{'->'.join(path.switches)}")
    return errors


# ---------------------------------------------------------------------------
# Corrupted placements (verify-sweep)
# ---------------------------------------------------------------------------


def corrupt(instance: PlacementInstance, placement: Dict[str, Any],
            kind: str, rng: random.Random) -> Dict[str, Any]:
    """A copy of a wire placement with one shield or one path's drop
    removed.

    ``shield`` takes one PERMIT off a switch where a DROP it shields
    sits, which breaks Eq. 1.  ``drop`` takes one DROP off every switch
    of one path; the DROP is chosen to be the first match for some
    header that no lower DROP matches, so the path really stops dropping
    that header.  Either way the placement is wrong, and a checker that
    accepts it checked less than the paper's semantics.  Only policies
    under ``CORRUPT_PIECE_LIMIT`` drop-region pieces are corrupted.
    """
    placed = {(e["ingress"], e["priority"]): set(e["switches"])
              for e in placement["placed"]}
    policies = [policy for policy in
                sorted(instance.policies, key=lambda p: p.ingress)
                if drop_pieces(policy, CORRUPT_PIECE_LIMIT)
                <= CORRUPT_PIECE_LIMIT]
    if kind == "shield":
        candidates = []
        for policy in policies:
            ingress = policy.ingress
            for drop, permits in sorted(shield_map(policy).items()):
                for switch in sorted(placed.get((ingress, drop), ())):
                    for permit in permits:
                        if switch in placed.get((ingress, permit), ()):
                            candidates.append((ingress, permit, switch))
        if candidates:
            ingress, permit, switch = rng.choice(candidates)
            placed[(ingress, permit)].discard(switch)
            return _with_placed(placement, placed)
    elif kind != "drop":
        raise ValueError(f"unknown corruption {kind!r}")
    choices = [(policy, path, rule)
               for policy in policies
               for path in instance.routing.paths(policy.ingress)
               for rule in policy.sorted_rules() if rule.is_drop]
    rng.shuffle(choices)
    for policy, path, rule in choices:
        switches = placed.get((policy.ingress, rule.priority))
        if switches and _owns_headers(policy, rule):
            switches.difference_update(path.switches)
            return _with_placed(placement, placed)
    raise ValueError("no corruptible drop in this placement")


def _owns_headers(policy: Policy, rule) -> bool:
    """Is ``rule`` the first match for a header no lower DROP matches?"""
    others = [_cube(other.match) for other in policy.rules
              if other.priority != rule.priority
              and (other.priority > rule.priority or other.is_drop)
              and _overlap(other.match, rule.match)]
    region = _subtract([_cube(rule.match)], others, _REGION_PIECE_LIMIT)
    return bool(region)


def _with_placed(placement: Dict[str, Any],
                 placed: Dict[Tuple[str, int], set]) -> Dict[str, Any]:
    out = dict(placement)
    out["placed"] = [
        {"ingress": key[0], "priority": key[1], "switches": sorted(switches)}
        for key, switches in sorted(placed.items()) if switches
    ]
    return out


# ---------------------------------------------------------------------------
# The delta stream (delta-10k)
# ---------------------------------------------------------------------------


@dataclass
class DeltaOp:
    """One delta: a reroute onto fresh paths or a policy modification."""

    op: str
    ingress: str
    paths: Optional[Tuple[Path, ...]] = None
    policy: Optional[Policy] = None

    def request(self, deployment: str) -> DeltaRequest:
        if self.op == "reroute":
            return DeltaRequest(
                deployment=deployment, op="reroute", ingress=self.ingress,
                paths=repro_io.routing_to_dict(Routing(self.paths)))
        return DeltaRequest(deployment=deployment, op="modify",
                            policy=repro_io.policy_to_dict(self.policy))

    def apply(self, deployer: IncrementalDeployer) -> IncrementalResult:
        """Apply to a local deployer exactly as the daemon does: the
        same greedy-then-sub-ILP ladder on the wire form of the input."""
        if self.op == "reroute":
            return deployer.reroute_policy(self.ingress, self.paths)
        wire = repro_io.policy_from_dict(repro_io.policy_to_dict(self.policy))
        return deployer.modify_policy(wire)


class DeltaStream:
    """Three reroutes to one modify against one deployment.

    A reroute moves a random ingress onto two fresh shortest paths.  A
    modify swaps ``MODIFY_RULES`` random rules of the ingress's current
    policy for as many freshly generated ones at the freed priorities,
    so policy sizes stay constant however long the stream runs.
    """

    MODIFY_RULES = 2

    def __init__(self, instance: PlacementInstance, seed: int) -> None:
        self._rng = stream_rng(seed, "delta-ops")
        self._topology = instance.topology
        self._policies = {p.ingress: p for p in instance.policies}
        self._ingresses = sorted(self._policies)
        self._count = 0

    def next(self) -> DeltaOp:
        index = self._count
        self._count += 1
        ingress = self._rng.choice(self._ingresses)
        op_seed = self._rng.getrandbits(31)
        if index % 4 == 3:
            return DeltaOp("modify", ingress,
                           policy=self._modified(ingress, op_seed, index))
        router = ShortestPathRouter(self._topology, seed=op_seed)
        paths = router.random_routing(2, ingresses=[ingress]).paths(ingress)
        return DeltaOp("reroute", ingress, paths=paths)

    def _modified(self, ingress: str, op_seed: int, index: int) -> Policy:
        policy = self._policies[ingress]
        rng = random.Random(op_seed)
        gone = sorted(r.priority for r in
                      rng.sample(policy.sorted_rules(), self.MODIFY_RULES))
        fresh = PolicyGenerator(
            PolicyGeneratorConfig(num_rules=self.MODIFY_RULES), seed=op_seed,
        ).generate_policy(ingress).rules
        kept = [rule for rule in policy.rules if rule.priority not in gone]
        added = [replace(rule, priority=priority, name=f"{ingress}.m{index}.{j}")
                 for j, (rule, priority) in enumerate(zip(fresh, gone))]
        modified = Policy(ingress=ingress, rules=kept + added,
                          default_action=policy.default_action)
        self._policies[ingress] = modified
        return modified
