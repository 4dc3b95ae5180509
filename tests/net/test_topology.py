"""Tests for the topology substrate."""

from __future__ import annotations

import pytest

from repro.net.routing import Path
from repro.net.topology import Switch, Topology


class TestSwitch:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Switch("s", -1)


class TestConstruction:
    def test_add_switch_and_lookup(self):
        topo = Topology()
        topo.add_switch("s1", 100, layer="edge")
        assert topo.has_switch("s1")
        assert topo.switch("s1").capacity == 100
        assert topo.switch("s1").layer == "edge"
        assert "s1" in topo

    def test_duplicate_switch_rejected(self):
        topo = Topology()
        topo.add_switch("s1", 10)
        with pytest.raises(ValueError):
            topo.add_switch("s1", 20)

    def test_link_requires_known_switches(self):
        topo = Topology()
        topo.add_switch("s1", 10)
        with pytest.raises(KeyError):
            topo.add_link("s1", "s2")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_switch("s1", 10)
        with pytest.raises(ValueError):
            topo.add_link("s1", "s1")

    def test_entry_port_validation(self):
        topo = Topology()
        topo.add_switch("s1", 10)
        topo.add_entry_port("l1", "s1")
        with pytest.raises(ValueError):
            topo.add_entry_port("l1", "s1")
        with pytest.raises(KeyError):
            topo.add_entry_port("l2", "nope")

    def test_counts_and_connectivity(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_switch(name, 10)
        topo.add_link("a", "b")
        assert topo.num_switches() == 3
        assert topo.num_links() == 1
        assert not topo.is_connected()
        topo.add_link("b", "c")
        assert topo.is_connected()

    def test_empty_topology_connected(self):
        assert Topology().is_connected()


class TestCapacities:
    def test_capacity_map_is_a_copy(self):
        topo = Topology()
        topo.add_switch("s1", 10)
        caps = topo.capacities()
        caps["s1"] = 999
        assert topo.capacity("s1") == 10

    def test_set_capacity(self):
        topo = Topology()
        topo.add_switch("s1", 10)
        topo.set_capacity("s1", 50)
        assert topo.capacity("s1") == 50
        with pytest.raises(ValueError):
            topo.set_capacity("s1", -1)

    def test_set_uniform_capacity(self):
        topo = Topology()
        topo.add_switch("s1", 10)
        topo.add_switch("s2", 20)
        topo.set_uniform_capacity(7)
        assert topo.capacity("s1") == topo.capacity("s2") == 7

    def test_neighbors_and_degree(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_switch(name, 10)
        topo.add_link("a", "b")
        topo.add_link("a", "c")
        assert topo.degree("a") == 2
        assert set(topo.neighbors("a")) == {"b", "c"}


class TestCheckPaths:
    """One rule for "a path crosses only switches of the topology",
    shared by instance validation and delta previews."""

    @staticmethod
    def _topology() -> Topology:
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_switch(name, 10)
        return topo

    def test_known_switches_pass(self):
        self._topology().check_paths([Path("h0", "h1", ("a", "b")),
                                      Path("h1", "h0", ("c",))])

    def test_first_unknown_switch_is_named_with_its_ingress(self):
        paths = [Path("h0", "h1", ("a", "b")),
                 Path("h1", "h0", ("c", "nowhere", "elsewhere"))]
        with pytest.raises(ValueError) as raised:
            self._topology().check_paths(paths)
        assert str(raised.value) == \
            "path for 'h1' uses unknown switch 'nowhere'"
