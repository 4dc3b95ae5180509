"""Exact verification that a placement preserves policy semantics.

The deployed distributed firewall must drop *exactly* the packets the
ingress policy specifies (paper, Section IV-A1).  This module provides
an independent checker -- it shares no code with the encodings -- that
certifies a :class:`~repro.core.placement.Placement`:

1. **Capacity**: per-switch load (merge-aware) within ``C_k``.
2. **Dependency** (Eq. 1, structural): wherever a DROP rule is placed,
   its higher-priority overlapping PERMITs are co-located.
3. **Semantics** (exact, symbolic): for every (ingress, path), the set
   of headers dropped along the path -- the union over the path's
   switches of each DROP's match minus its local higher-priority
   PERMIT shadow -- equals the policy's drop region, restricted to the
   path's flow descriptor when routing is sliced.
4. Optionally, **simulation**: synthesize the tagged tables and replay
   sampled packets through the dataplane simulator, cross-checking the
   table/priority/tag synthesis as well.

The symbolic check uses the exact :class:`~repro.policy.RegionSet`
calculus, so a passing report is a proof, not a sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..net.routing import Path
from ..policy.policy import Policy
from ..policy.ternary import RegionSet
from .depgraph import build_dependency_graph
from .instance import PlacementInstance, RuleKey
from .placement import Placement

__all__ = ["VerificationReport", "verify_placement", "path_drop_region"]


@dataclass
class VerificationReport:
    """Outcome of placement verification."""

    ok: bool
    errors: List[str] = field(default_factory=list)
    paths_checked: int = 0
    switches_checked: int = 0

    def raise_on_error(self) -> None:
        if not self.ok:
            raise AssertionError(
                "placement verification failed:\n" + "\n".join(self.errors)
            )


def _switch_drop_region(policy: Policy, priorities: List[int]) -> RegionSet:
    """Headers of ``policy``'s traffic dropped at one switch holding the
    rules of ``priorities``.

    Table semantics for one ingress at one switch: a header is dropped
    iff some placed DROP rule matches it and no placed higher-priority
    PERMIT of the same policy does.
    """
    width = policy.width
    region = RegionSet(width)
    placed_here = sorted((policy.rule_by_priority(priority)
                          for priority in priorities),
                         key=lambda r: -r.priority)
    for idx, rule in enumerate(placed_here):
        if not rule.is_drop:
            continue
        contribution = RegionSet(width, [rule.match])
        for higher in placed_here[:idx]:
            if higher.is_permit:
                contribution = contribution.subtract_cube(higher.match)
        for cube in contribution.cubes:
            region.add(cube)
    return region


class _DropRegions:
    """One policy's per-switch drop regions, each built once.

    A switch on several of the policy's paths contributes the same
    region to each of them; the placement is indexed once up front
    instead of scanned per (path, switch).
    """

    def __init__(self, placement: Placement, policy: Policy) -> None:
        self._policy = policy
        #: Per switch, the priorities of the policy's rules placed there.
        self._placed: Dict[str, List[int]] = {}
        for (ingress, priority), switches in placement.placed.items():
            if ingress == policy.ingress:
                for switch in switches:
                    self._placed.setdefault(switch, []).append(priority)
        self._regions: Dict[str, RegionSet] = {}

    def along(self, path: Path) -> RegionSet:
        """Headers dropped anywhere along ``path``."""
        region = RegionSet(self._policy.width)
        for switch in path.switches:
            here = self._regions.get(switch)
            if here is None:
                here = self._regions[switch] = _switch_drop_region(
                    self._policy, self._placed.get(switch, []))
            for cube in here.cubes:
                region.add(cube)
        return region


def path_drop_region(
    instance: PlacementInstance, placement: Placement,
    policy: Policy, path: Path,
) -> RegionSet:
    """Headers dropped anywhere along ``path`` for ``policy``'s traffic."""
    return _DropRegions(placement, policy).along(path)


def verify_placement(
    placement: Placement,
    simulate: bool = False,
    simulation_seed: int = 0,
) -> VerificationReport:
    """Certify a placement; see the module docstring for the checks."""
    report = VerificationReport(ok=True)
    instance = placement.instance

    if not placement.is_feasible:
        report.ok = False
        report.errors.append(f"placement status is {placement.status.value}")
        return report

    # -- capacity ---------------------------------------------------------
    for switch, excess in placement.capacity_violations().items():
        report.ok = False
        report.errors.append(
            f"switch {switch!r} exceeds capacity by {excess} rules"
        )
    report.switches_checked = len(placement.switch_loads())

    # -- Eq. 1 structural -------------------------------------------------
    for policy in instance.policies:
        graph = build_dependency_graph(policy)
        for drop_priority in graph.drop_priorities():
            drop_key: RuleKey = (policy.ingress, drop_priority)
            for switch in placement.switches_of(drop_key):
                for permit_priority in graph.dependencies_of(drop_priority):
                    permit_key = (policy.ingress, permit_priority)
                    if switch not in placement.switches_of(permit_key):
                        report.ok = False
                        report.errors.append(
                            f"dependency violation at {switch!r}: drop "
                            f"{drop_key} placed without permit {permit_key}"
                        )

    # -- exact semantics per path ------------------------------------------
    for policy in instance.policies:
        if not policy.rules:
            continue
        expected_full = policy.drop_region()
        regions = _DropRegions(placement, policy)
        for path in instance.routing.paths(policy.ingress):
            actual = regions.along(path)
            if path.flow is not None:
                expected = expected_full.intersect_cube(path.flow)
                actual = actual.intersect_cube(path.flow)
            else:
                expected = expected_full
            if not actual.equals(expected):
                report.ok = False
                missing = expected.difference(actual)
                extra = actual.difference(expected)
                detail = []
                if not missing.is_empty():
                    detail.append(f"not dropped: {missing.cubes[0].to_string()}")
                if not extra.is_empty():
                    detail.append(f"wrongly dropped: {extra.cubes[0].to_string()}")
                report.errors.append(
                    f"semantics violation for {policy.ingress!r} via "
                    f"{'->'.join(path.switches)}: {'; '.join(detail)}"
                )
            report.paths_checked += 1

    # -- optional dataplane simulation --------------------------------------
    if simulate and report.ok:
        from .tags import synthesize

        dataplane = synthesize(placement)
        mismatches = dataplane.check_routing_sampled(
            list(instance.policies), instance.routing, seed=simulation_seed
        )
        for mismatch in mismatches:
            report.ok = False
            report.errors.append(f"simulation mismatch: {mismatch}")

    return report
