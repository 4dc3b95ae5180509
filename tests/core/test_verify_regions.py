"""``verify_placement`` indexes the placement once and builds each
switch's drop region once per policy.

The per-path loop it replaced scanned the whole placement for every
(path, switch) and rebuilt a switch's region for every path through
it.  That loop is kept below as the reference: on intact and corrupted
placements both must give the same report, errors in the same order.
"""

from __future__ import annotations

import random

import pytest

from repro.core.depgraph import build_dependency_graph
from repro.core.placement import Placement, RulePlacer
from repro.core.verify import (VerificationReport, path_drop_region,
                               verify_placement)
from repro.experiments import ExperimentConfig, build_instance
from repro.milp.model import SolveStatus
from repro.policy.ternary import RegionSet

#: perfbench's ``verify-sweep`` shape: 16 policies of 40 rules.
SHAPE = {"num_ingresses": 16, "rules_per_policy": 40, "num_paths": 32,
         "capacity": 120}


def _reference_switch_region(placement, policy, switch):
    width = policy.width
    region = RegionSet(width)
    placed_here = [
        policy.rule_by_priority(priority)
        for (ingress, priority) in placement.placed
        if ingress == policy.ingress
        and switch in placement.placed[(ingress, priority)]
    ]
    placed_here.sort(key=lambda r: -r.priority)
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


def _reference_path_region(placement, policy, path):
    region = RegionSet(policy.width)
    for switch in path.switches:
        for cube in _reference_switch_region(placement, policy,
                                             switch).cubes:
            region.add(cube)
    return region


def _reference_verify(placement) -> VerificationReport:
    """``verify_placement`` (no simulation) with the per-path loop."""
    report = VerificationReport(ok=True)
    instance = placement.instance
    if not placement.is_feasible:
        report.ok = False
        report.errors.append(f"placement status is {placement.status.value}")
        return report
    for switch, excess in placement.capacity_violations().items():
        report.ok = False
        report.errors.append(
            f"switch {switch!r} exceeds capacity by {excess} rules")
    report.switches_checked = len(placement.switch_loads())
    for policy in instance.policies:
        graph = build_dependency_graph(policy)
        for drop_priority in graph.drop_priorities():
            drop_key = (policy.ingress, drop_priority)
            for switch in placement.switches_of(drop_key):
                for permit_priority in graph.dependencies_of(drop_priority):
                    permit_key = (policy.ingress, permit_priority)
                    if switch not in placement.switches_of(permit_key):
                        report.ok = False
                        report.errors.append(
                            f"dependency violation at {switch!r}: drop "
                            f"{drop_key} placed without permit {permit_key}")
    for policy in instance.policies:
        if not policy.rules:
            continue
        expected_full = policy.drop_region()
        for path in instance.routing.paths(policy.ingress):
            actual = _reference_path_region(placement, policy, path)
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
                    detail.append(
                        f"not dropped: {missing.cubes[0].to_string()}")
                if not extra.is_empty():
                    detail.append(
                        f"wrongly dropped: {extra.cubes[0].to_string()}")
                report.errors.append(
                    f"semantics violation for {policy.ingress!r} via "
                    f"{'->'.join(path.switches)}: {'; '.join(detail)}")
            report.paths_checked += 1
    return report


def _same_report(placement) -> VerificationReport:
    got = verify_placement(placement)
    want = _reference_verify(placement)
    assert (got.ok, got.errors, got.paths_checked, got.switches_checked) \
        == (want.ok, want.errors, want.paths_checked, want.switches_checked)
    return got


def _without_shield(placement, rng):
    """Remove one PERMIT from one switch where a DROP it shields sits."""
    instance = placement.instance
    choices = []
    for policy in instance.policies:
        graph = build_dependency_graph(policy)
        for drop in graph.drop_priorities():
            for switch in placement.switches_of((policy.ingress, drop)):
                for permit in graph.dependencies_of(drop):
                    choices.append(((policy.ingress, permit), switch))
    key, switch = rng.choice(sorted(choices))
    placed = dict(placement.placed)
    placed[key] = placed[key] - {switch}
    return Placement(instance, SolveStatus.FEASIBLE, placed)


def _without_drop_on_a_path(placement, rng):
    """Remove one DROP from every switch of one of its paths."""
    instance = placement.instance
    choices = []
    for key, switches in sorted(placement.placed.items()):
        if not instance.rule(key).is_drop:
            continue
        for path in instance.routing.paths(key[0]):
            if switches & set(path.switches):
                choices.append((key, path))
    key, path = rng.choice(choices)
    placed = dict(placement.placed)
    placed[key] = placed[key] - set(path.switches)
    return Placement(instance, SolveStatus.FEASIBLE, placed)


@pytest.mark.parametrize("seed", range(4))
def test_same_report_as_the_per_path_loop(seed):
    instance = build_instance(ExperimentConfig(seed=seed, **SHAPE))
    placement = RulePlacer().place(instance)
    assert _same_report(placement).ok
    rng = random.Random(seed)
    for corrupt in (_without_shield, _without_drop_on_a_path):
        # A removed drop may be redundant on its path; not all are.
        reports = [_same_report(corrupt(placement, rng)) for _ in range(4)]
        assert any(not report.ok for report in reports)


def test_path_drop_region_unchanged():
    instance = build_instance(ExperimentConfig(seed=7, **SHAPE))
    placement = _without_shield(RulePlacer().place(instance),
                                random.Random(7))
    for policy in instance.policies:
        for path in instance.routing.paths(policy.ingress):
            got = path_drop_region(instance, placement, policy, path)
            want = _reference_path_region(placement, policy, path)
            assert got.cubes == want.cubes
