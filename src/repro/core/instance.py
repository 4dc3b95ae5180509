"""The rule-placement problem instance: ``(N, P, Q)`` of Section III.

Bundles the three inputs the paper's formulation consumes -- the switch
network ``N`` (with capacities ``C_i``), the routed paths ``P`` produced
by the external routing module, and the distributed firewall policies
``Q`` -- plus the derived lookups (``S_i``, per-path rule slices) every
encoding needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..digest import canonical_digest, routing_parts, topology_parts
from ..net.routing import Routing
from ..net.topology import Topology
from ..policy.policy import Policy, PolicySet
from ..policy.rule import Rule

__all__ = ["RuleKey", "PlacementInstance"]

#: A rule is globally identified by its ingress policy and priority.
RuleKey = Tuple[str, int]


@dataclass
class PlacementInstance:
    """An immutable-by-convention bundle of the problem inputs.

    ``capacities`` defaults to the topology's switch capacities but can
    be overridden -- incremental deployment re-solves against *spare*
    capacities (Section IV-E) without touching the topology.
    """

    topology: Topology
    routing: Routing
    policies: PolicySet
    capacities: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        if self.capacities is None:
            self.capacities = self.topology.capacities()
        self._validate()

    def _validate(self) -> None:
        for policy in self.policies:
            paths = self.routing.paths(policy.ingress)
            self.topology.check_paths(paths)
            policy.check_flows(paths)
        for name in self.capacities:
            if not self.topology.has_switch(name):
                raise ValueError(f"capacity given for unknown switch {name!r}")

    def digest(self) -> str:
        """Canonical content digest of the whole problem bundle.

        Covers topology (switches/links/ports), routing (every path),
        policies (per-ingress content digests -- the same hashes the
        depgraph memo keys on) and the effective capacity map, all via
        :func:`repro.digest.canonical_digest`.  Two instances built
        independently from equal content share one digest, which is
        exactly what the serving layer's content-addressed result cache
        and request coalescing key on.
        """

        def parts():
            yield from topology_parts(self.topology)
            yield from routing_parts(self.routing)
            for policy in sorted(self.policies, key=lambda p: p.ingress):
                yield f"policy:{policy.ingress}:{policy.content_digest()}"
            for name in sorted(self.capacities):
                yield f"capacity:{name}:{self.capacities[name]}"

        return canonical_digest(parts())

    # ------------------------------------------------------------------
    # Derived lookups
    # ------------------------------------------------------------------

    def reachable_switches(self, ingress: str) -> Tuple[str, ...]:
        """``S_i`` for one ingress."""
        return self.routing.reachable_switches(ingress)

    def capacity(self, switch: str) -> int:
        return self.capacities[switch]

    def rule(self, key: RuleKey) -> Rule:
        ingress, priority = key
        return self.policies[ingress].rule_by_priority(priority)

    def policy_of(self, key: RuleKey) -> Policy:
        return self.policies[key[0]]

    def all_rule_keys(self) -> List[RuleKey]:
        """Deterministic enumeration of every rule in every policy."""
        keys: List[RuleKey] = []
        for policy in self.policies:
            for rule in policy.sorted_rules():
                keys.append((policy.ingress, rule.priority))
        return keys

    def total_rules(self) -> int:
        return self.policies.total_rules()

    def routed_policies(self) -> List[Policy]:
        """Policies that actually have at least one path routed."""
        return [p for p in self.policies if self.routing.paths(p.ingress)]

    def summary(self) -> str:
        """One-line instance description for logs and benchmark output."""
        caps = sorted(set(self.capacities.values()))
        cap_text = str(caps[0]) if len(caps) == 1 else f"{caps[0]}..{caps[-1]}"
        return (
            f"{self.topology.num_switches()} switches, "
            f"{self.routing.num_paths()} paths, "
            f"{len(self.policies)} policies, "
            f"{self.total_rules()} rules, C={cap_text}"
        )
