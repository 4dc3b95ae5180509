"""Network topology model (the paper's ``N``, ``s_i``, ``C_i``, ``l_i``).

A :class:`Topology` is a set of switches with per-switch TCAM rule
capacities, links between switches, and *entry ports* -- the network
ingress/egress points the paper writes ``l_i``.  Entry ports attach to a
specific switch (the edge switch a host or external link connects to).

The graph structure is kept in a :mod:`networkx` graph so that routing
(shortest paths, connectivity checks) can reuse standard algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import networkx as nx

__all__ = ["Switch", "EntryPort", "Topology"]


@dataclass
class Switch:
    """A dataplane switch with a bounded ACL rule capacity.

    ``capacity`` is the number of TCAM slots available for ACL rules
    (``C_i``).  The paper notes practical switches expose 1k-2k slots,
    only a fraction of which are free for ACLs.
    """

    name: str
    capacity: int
    #: Optional layer annotation (core/aggregation/edge) used by
    #: fat-tree construction and reporting.
    layer: str = ""

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"switch {self.name!r}: capacity must be >= 0")


@dataclass(frozen=True)
class EntryPort:
    """A network entry (ingress/egress) port ``l_i`` attached to a switch."""

    name: str
    switch: str


class Topology:
    """Switches + links + entry ports, with capacity bookkeeping."""

    def __init__(self) -> None:
        self._switches: Dict[str, Switch] = {}
        self._entry_ports: Dict[str, EntryPort] = {}
        self.graph = nx.Graph()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_switch(self, name: str, capacity: int, layer: str = "") -> Switch:
        if name in self._switches:
            raise ValueError(f"duplicate switch {name!r}")
        switch = Switch(name, capacity, layer)
        self._switches[name] = switch
        self.graph.add_node(name)
        return switch

    def add_link(self, a: str, b: str) -> None:
        """A bidirectional switch-to-switch link."""
        for end in (a, b):
            if end not in self._switches:
                raise KeyError(f"unknown switch {end!r}")
        if a == b:
            raise ValueError(f"self-loop link on {a!r}")
        self.graph.add_edge(a, b)

    def add_entry_port(self, name: str, switch: str) -> EntryPort:
        """Attach an ingress/egress port ``l_i`` to an edge switch."""
        if name in self._entry_ports:
            raise ValueError(f"duplicate entry port {name!r}")
        if switch not in self._switches:
            raise KeyError(f"unknown switch {switch!r}")
        port = EntryPort(name, switch)
        self._entry_ports[name] = port
        return port

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def switches(self) -> Tuple[Switch, ...]:
        return tuple(self._switches.values())

    @property
    def switch_names(self) -> Tuple[str, ...]:
        return tuple(self._switches)

    @property
    def entry_ports(self) -> Tuple[EntryPort, ...]:
        return tuple(self._entry_ports.values())

    def switch(self, name: str) -> Switch:
        return self._switches[name]

    def entry_port(self, name: str) -> EntryPort:
        return self._entry_ports[name]

    def has_switch(self, name: str) -> bool:
        return name in self._switches

    def check_paths(self, paths: Iterable) -> None:
        """A ValueError naming the first switch on ``paths`` (routing
        :class:`~repro.net.routing.Path` objects) that this topology
        lacks."""
        for path in paths:
            for switch in path.switches:
                if switch not in self._switches:
                    raise ValueError(f"path for {path.ingress!r} uses "
                                     f"unknown switch {switch!r}")

    def capacity(self, name: str) -> int:
        return self._switches[name].capacity

    def capacities(self) -> Dict[str, int]:
        """Capacity map ``{switch: C}`` (a copy, safe to mutate)."""
        return {s.name: s.capacity for s in self._switches.values()}

    def set_capacity(self, name: str, capacity: int) -> None:
        """Reset one switch's ACL capacity (used by capacity sweeps)."""
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._switches[name].capacity = capacity

    def set_uniform_capacity(self, capacity: int) -> None:
        """Set every switch's capacity to the same value.

        The paper's experiments sweep one uniform capacity ``C``.
        """
        for switch in self._switches.values():
            switch.capacity = capacity

    def degree(self, name: str) -> int:
        return self.graph.degree[name]

    def neighbors(self, name: str) -> List[str]:
        return list(self.graph.neighbors(name))

    def num_switches(self) -> int:
        return len(self._switches)

    def num_links(self) -> int:
        return self.graph.number_of_edges()

    def is_connected(self) -> bool:
        if not self._switches:
            return True
        return nx.is_connected(self.graph)

    def __contains__(self, name: str) -> bool:
        return name in self._switches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({self.num_switches()} switches, {self.num_links()} links, "
            f"{len(self._entry_ports)} entry ports)"
        )
