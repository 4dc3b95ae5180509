"""Path-sliced policy rules (paper Section IV-C) and variable domains.

When the routing module annotates each path with the flow of packets
that actually traverse it, a DROP rule only needs to be enforced on the
paths whose flow overlaps its matching field (Fig. 6).  This module
computes, per (ingress, path), the *relevant* DROP rules -- limiting the
path dependency constraint (Eq. 2) -- and, per rule, the *placement
domain*: the switches where a placement variable ``v_{i,j,k}`` needs to
exist at all.

Without flow descriptors everything degenerates gracefully: every DROP
is relevant to every path and every rule's domain is ``S_i``, exactly
the unsliced formulation of Section IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..net.routing import Path
from ..policy.rule import Rule
from .depgraph import DependencyGraph
from .instance import PlacementInstance, RuleKey

__all__ = ["SliceInfo", "build_slices", "relevant_drops"]


@dataclass
class SliceInfo:
    """Relevance and domain information for one placement instance.

    Attributes
    ----------
    relevant_drops:
        ``(ingress, path_index) -> drop priorities`` that must be placed
        somewhere on that path.
    domains:
        ``(ingress, priority) -> switches`` where the rule may be
        placed (the variable domain).  Rules absent from the mapping
        need no variables: they are never required anywhere.
    """

    relevant_drops: Dict[Tuple[str, int], Tuple[int, ...]] = field(default_factory=dict)
    domains: Dict[RuleKey, Tuple[str, ...]] = field(default_factory=dict)

    def domain(self, key: RuleKey) -> Tuple[str, ...]:
        return self.domains.get(key, ())

    def drops_for_path(self, ingress: str, path_index: int) -> Tuple[int, ...]:
        return self.relevant_drops.get((ingress, path_index), ())

    def num_variables(self) -> int:
        """Total placement variables the encodings will create."""
        return sum(len(switches) for switches in self.domains.values())


def relevant_drops(drops: Sequence[Rule], path: Path) -> Sequence[Rule]:
    """The DROP rules of ``drops`` that must be enforced on ``path``, in
    their given order.

    A DROP rule is relevant to a path when the path has no flow
    descriptor or the descriptor overlaps the rule's match.  This is
    the one definition: the encodings' Eq. 2 rows (through
    :func:`build_slices`) and the incremental greedy both ask it.
    """
    flow = path.flow
    if flow is None:
        return drops
    return [rule for rule in drops if rule.match.intersects(flow)]


def build_slices(
    instance: PlacementInstance,
    depgraphs: Dict[str, DependencyGraph],
) -> SliceInfo:
    """Compute per-path relevant drops and per-rule placement domains.

    Relevance is :func:`relevant_drops`.  A DROP rule's domain is the
    union of switches over its relevant paths; a PERMIT rule inherits
    the union of the domains of the DROP rules that depend on it
    (Eq. 1 can only force a permit where some drop goes).
    """
    info = SliceInfo()
    for policy in instance.policies:
        ingress = policy.ingress
        paths = instance.routing.paths(ingress)
        graph = depgraphs[ingress]
        drops = [rule for rule in policy.sorted_rules() if rule.is_drop]
        drop_domains: Dict[int, Dict[str, None]] = {}
        for path_index, path in enumerate(paths):
            relevant: List[int] = []
            for rule in relevant_drops(drops, path):
                relevant.append(rule.priority)
                domain = drop_domains.setdefault(rule.priority, {})
                for switch in path.switches:
                    domain.setdefault(switch)
            info.relevant_drops[(ingress, path_index)] = tuple(relevant)
        permit_domains: Dict[int, Dict[str, None]] = {}
        for drop_priority, switches in drop_domains.items():
            info.domains[(ingress, drop_priority)] = tuple(switches)
            for permit_priority in graph.dependencies_of(drop_priority):
                domain = permit_domains.setdefault(permit_priority, {})
                for switch in switches:
                    domain.setdefault(switch)
        for permit_priority, switches in permit_domains.items():
            info.domains[(ingress, permit_priority)] = tuple(switches)
    return info
