"""Component decomposition: solve independent sub-instances in parallel.

The variable-sharing graph of the placement ILP is often disconnected:
two rules interact only when some constraint row touches both of their
variables, and every constraint family is local -- dependency and path
rows stay inside one policy, capacity rows couple exactly the rules
whose placement domains (``SliceInfo.domains``) contain the same
switch.  Policies whose domains share no switch therefore live in
disjoint sub-models, and the decomposition literature on network
function placement (Lukovszki/Rost/Schmid, arXiv:1706.06496) shows such
instances split naturally along exactly this seam.

``split_components`` finds the connected components with a union-find
over ingresses keyed by shared domain switches.  ``place_components``
solves each component as its own :class:`PlacementInstance` -- because
the components partition the constrained switches, each component keeps
the *full* capacity of every switch it owns, and stitching the
sub-solutions back together is exact: the summed objective equals the
monolithic optimum (the differential suite in
``tests/solve/test_components.py`` holds it to that).  Components run
concurrently, at most ``workers`` forked children at a time
(:mod:`repro.forkpipe`, the fork primitive the portfolio race shares);
the caller falls back to the monolithic model when there is a single
component, an unsupported configuration, or -- as a safety net that
should be unreachable -- stitching would violate a capacity.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.instance import PlacementInstance, RuleKey
from ..core.objectives import (
    Combined,
    SwitchCount,
    TotalRules,
    UpstreamDrops,
    WeightedSwitches,
)
from ..core.placement import Placement, PlacerConfig
from ..core.slicing import SliceInfo
from ..forkpipe import CAN_FORK, Child, reply, wait_any
from ..milp.model import SolveStatus
from ..policy.policy import PolicySet

__all__ = ["Component", "split_components", "place_components",
           "objective_is_separable"]


@dataclass(frozen=True)
class Component:
    """One independent piece of the variable-sharing graph."""

    ingresses: Tuple[str, ...]
    switches: FrozenSet[str]
    num_rules: int


def split_components(
    instance: PlacementInstance, slices: SliceInfo
) -> List[Component]:
    """Connected components of the variable-sharing graph.

    Two ingress policies are coupled when some switch appears in both
    of their rules' placement domains (a shared capacity row); the
    components are the transitive closure.  Policies with no placement
    variables at all (nothing routed or nothing required) are omitted
    -- they contribute no variables to any model.
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    switch_owner: Dict[str, str] = {}
    rules_of: Dict[str, int] = {}
    switches_of: Dict[str, set] = {}
    for (ingress, _priority), switches in slices.domains.items():
        parent.setdefault(ingress, ingress)
        rules_of[ingress] = rules_of.get(ingress, 0) + 1
        bag = switches_of.setdefault(ingress, set())
        for switch in switches:
            bag.add(switch)
            owner = switch_owner.setdefault(switch, ingress)
            if owner != ingress:
                union(owner, ingress)

    groups: Dict[str, List[str]] = {}
    for ingress in parent:
        groups.setdefault(find(ingress), []).append(ingress)
    components = []
    for members in groups.values():
        members.sort()
        switches: set = set()
        for ingress in members:
            switches |= switches_of[ingress]
        components.append(Component(
            ingresses=tuple(members),
            switches=frozenset(switches),
            num_rules=sum(rules_of[i] for i in members),
        ))
    components.sort(key=lambda c: c.ingresses)
    return components


def objective_is_separable(objective) -> bool:
    """Can the objective be minimized per component and summed?

    True for every objective whose terms attach to individual variables
    or individual switches (all the built-ins).  A custom objective is
    conservatively treated as non-separable and keeps the monolithic
    path.
    """
    if isinstance(objective, (TotalRules, UpstreamDrops,
                              WeightedSwitches, SwitchCount)):
        return True
    if isinstance(objective, Combined):
        return all(objective_is_separable(c) for _w, c in objective.components)
    return False


def build_subinstance(instance: PlacementInstance,
                      component: Component) -> PlacementInstance:
    """The component's own :class:`PlacementInstance`.

    Topology, routing, and capacities are shared wholesale -- the
    encoding only materializes variables and capacity rows for the
    component's policies, and no other component touches its switches,
    so each sub-model sees the full capacity of every switch it uses.
    """
    subset = PolicySet(instance.policies[i] for i in component.ingresses)
    return PlacementInstance(
        instance.topology, instance.routing, subset, dict(instance.capacities)
    )


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def _solve_component(payload) -> Dict[str, object]:
    """Worker entry point: solve one sub-instance monolithically.

    Runs in a forked child (or inline for the serial path);
    returns a small picklable result dict, mirroring the portfolio's
    engine payloads.
    """
    sub_instance, config, depgraphs = payload
    from ..core.placement import RulePlacer

    try:
        placement = RulePlacer(config).place(sub_instance, depgraphs=depgraphs)
    except Exception as exc:
        # A failed sub-solve (bad backend, solver crash) must not take
        # down the whole placement -- report ERROR and let the caller
        # fall back to the monolithic model.
        return {
            "status": SolveStatus.ERROR.value,
            "objective": None,
            "placed": {},
            "solve_seconds": 0.0,
            "build_seconds": 0.0,
            "num_variables": 0,
            "num_constraints": 0,
            "has_solution": False,
            "error": repr(exc),
        }
    return {
        "status": placement.status.value,
        "objective": placement.objective_value,
        "placed": {k: tuple(sorted(v)) for k, v in placement.placed.items()},
        "solve_seconds": placement.solve_seconds,
        "build_seconds": placement.build_seconds,
        "num_variables": placement.num_variables,
        "num_constraints": placement.num_constraints,
        "has_solution": placement.is_feasible,
    }


def _run_parallel(payloads, workers: int) -> List[Dict[str, object]]:
    """Solve the components in forked children, at most ``workers`` at once.

    Fork shares the parent's warm depgraph cache copy-on-write, so
    children skip the dependency analysis entirely.  A child that
    raises or dies raises here.
    """
    results: list = [None] * len(payloads)
    queued = list(enumerate(payloads))
    running: Dict[Child, int] = {}
    try:
        while queued or running:
            while queued and len(running) < workers:
                index, payload = queued.pop(0)
                running[Child(reply, _solve_component, payload)] = index
            for child in wait_any(list(running)):
                index = running.pop(child)
                try:
                    results[index] = child.receive(0)
                finally:
                    child.close()
    finally:
        for child in running:
            child.close()
    return results


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def place_components(
    instance: PlacementInstance,
    config: PlacerConfig,
    components: Sequence[Component],
    workers: Optional[int] = None,
    depgraphs: Optional[Dict[str, object]] = None,
) -> Optional[Placement]:
    """Solve each component independently and stitch the sub-solutions.

    Returns the stitched :class:`Placement`, or ``None`` when the
    decomposition cannot stand behind an exact answer (a component
    solve errored, or the stitched solution violates a capacity) and
    the caller must fall back to the monolithic model.
    """
    sub_config = dataclasses.replace(
        config, parallel_components="off", remove_redundancy=False
    )
    # Already-computed dependency graphs ride along per component so the
    # sub-solves (forked or serial) skip the dependency analysis.
    def _component_graphs(component: Component):
        if not depgraphs:
            return None
        if any(i not in depgraphs for i in component.ingresses):
            return None  # partial set: let the sub-solve recompute
        return {i: depgraphs[i] for i in component.ingresses}

    payloads = [
        (build_subinstance(instance, component), sub_config,
         _component_graphs(component))
        for component in components
    ]

    is_portfolio = (
        config.backend == "portfolio"
        or type(config.backend).__name__ == "PortfolioSolver"
    )
    if workers is None:
        workers = min(len(payloads), os.cpu_count() or 1)
    started = time.perf_counter()
    mode = "serial"
    if CAN_FORK and not is_portfolio and workers > 1 and len(payloads) > 1:
        # Each portfolio solve already forks one child per engine, so
        # portfolio components run one at a time: the race is the
        # parallelism, and a child per component on top would only
        # oversubscribe the cores.
        try:
            results = _run_parallel(payloads, workers)
            mode = "parallel"
        except Exception:  # a child raised or died: solve serially
            pass
    if mode == "serial":
        results = [_solve_component(p) for p in payloads]
    wall = time.perf_counter() - started

    statuses = [SolveStatus(r["status"]) for r in results]
    if any(s is SolveStatus.ERROR for s in statuses):
        return None

    placement = Placement(
        instance=instance,
        status=SolveStatus.OPTIMAL,
        num_variables=sum(int(r["num_variables"]) for r in results),
        num_constraints=sum(int(r["num_constraints"]) for r in results),
        solve_seconds=wall,
    )
    placement.build_seconds = sum(float(r["build_seconds"]) for r in results)
    sequential = sum(float(r["solve_seconds"]) + float(r["build_seconds"])
                     for r in results)
    telemetry: Dict[str, object] = {
        "count": len(components),
        "mode": mode,
        "workers": workers if mode == "parallel" else 1,
        "sizes": [c.num_rules for c in components],
        "wall_seconds": wall,
        "sequential_seconds": sequential,
    }
    placement.solver_stats["components"] = telemetry

    if any(s is SolveStatus.INFEASIBLE for s in statuses):
        # One impossible component makes the whole instance impossible.
        placement.status = SolveStatus.INFEASIBLE
        return placement

    if not all(r["has_solution"] for r in results):
        placement.status = SolveStatus.TIME_LIMIT
        return placement

    placed: Dict[RuleKey, FrozenSet[str]] = {}
    for result in results:
        for key, switches in result["placed"].items():
            placed[key] = frozenset(switches)
    placement.placed = placed
    placement.objective_value = sum(float(r["objective"]) for r in results)
    if all(s is SolveStatus.OPTIMAL for s in statuses):
        placement.status = SolveStatus.OPTIMAL
    elif any(s is SolveStatus.TIME_LIMIT for s in statuses):
        placement.status = SolveStatus.TIME_LIMIT
    else:
        placement.status = SolveStatus.FEASIBLE

    if placement.capacity_violations():
        # Unreachable by construction (components own their switches
        # outright); kept as the promised safety net.
        return None
    return placement
