"""Network substrate: topologies, fat-tree generation, and routing."""

from .topology import Switch, EntryPort, Topology
from .fattree import (
    fattree,
    fattree_num_switches,
    fattree_num_hosts,
    fattree_num_core,
)
from .routing import Path, Routing, ShortestPathRouter
from .generators import line, ring, star, leaf_spine, random_graph
from .failures import (
    FailedLink,
    FailedSwitch,
    fail_link,
    fail_switch,
    restore,
    affected_ingresses,
    reroute_after_failure,
)

__all__ = [
    "FailedLink",
    "FailedSwitch",
    "fail_link",
    "fail_switch",
    "restore",
    "affected_ingresses",
    "reroute_after_failure",
    "line",
    "ring",
    "star",
    "leaf_spine",
    "random_graph",
    "Switch",
    "EntryPort",
    "Topology",
    "fattree",
    "fattree_num_switches",
    "fattree_num_hosts",
    "fattree_num_core",
    "Path",
    "Routing",
    "ShortestPathRouter",
]
