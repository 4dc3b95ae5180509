"""JSON (de)serialization of every first-class object.

Production users need to persist and exchange instances and solutions:
topologies drawn from inventory systems, policies exported from cloud
consoles, placements shipped to an SDN controller.  This module defines
a stable, human-readable JSON schema for :class:`Topology`,
:class:`Policy` / :class:`PolicySet`, :class:`Routing`,
:class:`PlacementInstance` and :class:`Placement`, with exact
round-tripping (ternary matches serialize as their ``{0,1,*}`` pattern
strings, so files are diffable and hand-editable).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from .core.instance import PlacementInstance
from .core.placement import Placement
from .milp.model import SolveStatus
from .net.routing import Path, Routing
from .net.topology import Topology
from .policy.policy import Policy, PolicySet
from .policy.rule import Action, Rule
from .policy.ternary import TernaryMatch

__all__ = [
    "topology_to_dict", "topology_from_dict",
    "policy_to_dict", "policy_from_dict",
    "policies_to_dict", "policies_from_dict",
    "routing_to_dict", "routing_from_dict", "paths_from_dict",
    "instance_to_dict", "instance_from_dict",
    "placement_to_dict", "placement_from_dict",
    "save_instance", "load_instance",
    "save_placement", "load_placement",
]

SCHEMA_VERSION = 1


def _expect(data: Any, kind: type, what: str) -> Any:
    """``data`` unchanged if it is a ``kind`` (dict: JSON object, list:
    JSON array); else a ValueError.

    Decoded JSON of the wrong type would otherwise fail deep inside a
    decoder with an AttributeError, which callers do not map to a bad
    request, or be misread: a list of characters iterates like a string.
    """
    if not isinstance(data, kind):
        name = "object" if kind is dict else "array"
        raise ValueError(
            f"{what} must be a JSON {name}, got {type(data).__name__}"
        )
    return data


def _expect_name(name: Any, what: str) -> str:
    """``name`` unchanged if it is a string, else a ValueError: names
    key dicts and sets, so a list fails late and an int is misread."""
    if not isinstance(name, str):
        raise ValueError(f"{what} must be a string, got {name!r}")
    return name


def _expect_capacity(capacity: Any, what: str) -> Any:
    """``capacity`` unchanged if it is a finite number (a bool is not
    one here), else a ValueError: anything else would reach the
    solver."""
    number = isinstance(capacity, (int, float)) and not isinstance(capacity, bool)
    if not number or (isinstance(capacity, float) and not math.isfinite(capacity)):
        raise ValueError(f"{what} must be a number, got {capacity!r}")
    return capacity


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

def topology_to_dict(topo: Topology) -> Dict[str, Any]:
    return {
        "switches": [
            {"name": s.name, "capacity": s.capacity, "layer": s.layer}
            for s in topo.switches
        ],
        "links": sorted([sorted(edge) for edge in topo.graph.edges]),
        "entry_ports": [
            {"name": p.name, "switch": p.switch} for p in topo.entry_ports
        ],
    }


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    _expect(data, dict, "topology")
    topo = Topology()
    for spec in data["switches"]:
        topo.add_switch(spec["name"],
                        _expect_capacity(spec["capacity"], "switch capacity"),
                        spec.get("layer", ""))
    for a, b in data["links"]:
        topo.add_link(a, b)
    for spec in data["entry_ports"]:
        topo.add_entry_port(_expect_name(spec["name"], "entry port name"),
                            spec["switch"])
    return topo


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def _rule_to_dict(rule: Rule) -> Dict[str, Any]:
    return {
        "match": rule.match.to_string(),
        "action": rule.action.value,
        "priority": rule.priority,
        "name": rule.name,
    }


def _rule_from_dict(data: Dict[str, Any]) -> Rule:
    _expect(data, dict, "rule")
    priority = data["priority"]
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ValueError(
            f"rule priority must be an integer, got {priority!r}"
        )
    return Rule(
        TernaryMatch.from_string(data["match"]),
        Action(data["action"]),
        priority,
        data.get("name", ""),
    )


def policy_to_dict(policy: Policy) -> Dict[str, Any]:
    return {
        "ingress": policy.ingress,
        "default_action": policy.default_action.value,
        "rules": [_rule_to_dict(r) for r in policy.sorted_rules()],
    }


def policy_from_dict(data: Dict[str, Any]) -> Policy:
    _expect(data, dict, "policy")
    return Policy(
        _expect_name(data["ingress"], "policy ingress"),
        [_rule_from_dict(r) for r in _expect(data["rules"], list, "rules")],
        Action(data.get("default_action", "permit")),
    )


def policies_to_dict(policies: PolicySet) -> List[Dict[str, Any]]:
    return [policy_to_dict(p) for p in policies]


def policies_from_dict(data: List[Dict[str, Any]]) -> PolicySet:
    return PolicySet([
        policy_from_dict(p) for p in _expect(data, list, "policies")
    ])


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def routing_to_dict(routing: Routing) -> List[Dict[str, Any]]:
    return [
        {
            "ingress": p.ingress,
            "egress": p.egress,
            "switches": list(p.switches),
            "flow": None if p.flow is None else p.flow.to_string(),
        }
        for p in routing.all_paths()
    ]


def paths_from_dict(data: List[Dict[str, Any]]) -> List[Path]:
    """Decode path specs: the ``routing`` of an instance, or the
    ``paths`` of an install or reroute delta."""
    paths = []
    for spec in _expect(data, list, "paths"):
        _expect(spec, dict, "path")
        flow = spec.get("flow")
        paths.append(Path(
            _expect_name(spec["ingress"], "path ingress"),
            _expect_name(spec["egress"], "path egress"),
            tuple(_expect_name(switch, "path switch")
                  for switch in spec["switches"]),
            None if flow is None else TernaryMatch.from_string(flow),
        ))
    return paths


def routing_from_dict(data: List[Dict[str, Any]]) -> Routing:
    return Routing(paths_from_dict(data))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def instance_to_dict(instance: PlacementInstance) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "topology": topology_to_dict(instance.topology),
        "routing": routing_to_dict(instance.routing),
        "policies": policies_to_dict(instance.policies),
        "capacities": dict(instance.capacities),
    }


def instance_from_dict(data: Dict[str, Any]) -> PlacementInstance:
    _expect(data, dict, "instance")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version}")
    return PlacementInstance(
        topology_from_dict(data["topology"]),
        routing_from_dict(data["routing"]),
        policies_from_dict(data["policies"]),
        {name: _expect_capacity(capacity, "capacity")
         for name, capacity in _expect(data["capacities"], dict,
                                       "capacities").items()},
    )


# ---------------------------------------------------------------------------
# Placements (solution only; re-attach to an instance on load)
# ---------------------------------------------------------------------------

def placement_to_dict(placement: Placement) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "status": placement.status.value,
        "objective_value": placement.objective_value,
        "solve_seconds": placement.solve_seconds,
        "placed": [
            {"ingress": key[0], "priority": key[1], "switches": sorted(switches)}
            for key, switches in sorted(placement.placed.items())
        ],
        "merged": [
            {"gid": gid, "switches": sorted(switches)}
            for gid, switches in sorted(placement.merged.items())
        ],
        # Flat counters plus, for portfolio solves, the structured
        # per-engine telemetry (winner, outcomes, wall times).
        "solver_stats": placement.solver_stats,
    }


def placement_from_dict(data: Dict[str, Any],
                        instance: PlacementInstance) -> Placement:
    _expect(data, dict, "placement")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version}")
    placement = Placement(
        instance=instance,
        status=SolveStatus(data["status"]),
        objective_value=data.get("objective_value"),
        solve_seconds=data.get("solve_seconds", 0.0),
        solver_stats=dict(data.get("solver_stats", {})),
    )
    placement.placed = {
        (entry["ingress"], entry["priority"]): frozenset(entry["switches"])
        for entry in data["placed"]
    }
    placement.merged = {
        entry["gid"]: frozenset(entry["switches"])
        for entry in data.get("merged", [])
    }
    if placement.merged:
        # Rebuild the (deterministic) merge plan so merge-aware load
        # accounting survives the round trip; group ids are stable
        # because plan construction is a pure function of the instance.
        from .core.depgraph import build_dependency_graph
        from .core.merging import build_merge_plan
        from .core.slicing import build_slices

        graphs = {
            policy.ingress: build_dependency_graph(policy)
            for policy in instance.policies
        }
        placement.merge_plan = build_merge_plan(
            instance, build_slices(instance, graphs)
        )
    return placement


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

def save_instance(instance: PlacementInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_dict(instance), handle, indent=2)


def load_instance(path: str) -> PlacementInstance:
    with open(path, "r", encoding="utf-8") as handle:
        return instance_from_dict(json.load(handle))


def save_placement(placement: Placement, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(placement_to_dict(placement), handle, indent=2)


def load_placement(path: str, instance: PlacementInstance) -> Placement:
    with open(path, "r", encoding="utf-8") as handle:
        return placement_from_dict(json.load(handle), instance)
