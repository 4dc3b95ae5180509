"""Tests for the ILP encoding (Eq. 1-5) and solution extraction."""

from __future__ import annotations

import pytest

from repro.core.ilp import build_encoding
from repro.core.instance import PlacementInstance
from repro.core.objectives import TotalRules, apply_objective
from repro.core.placement import RulePlacer
from repro.milp.model import Sense, SolveStatus
from repro.net.routing import Path, Routing
from repro.net.topology import Topology
from repro.policy.policy import Policy, PolicySet
from repro.policy.rule import Action, Rule
from repro.policy.ternary import TernaryMatch


def rule(pattern: str, action: Action, priority: int) -> Rule:
    return Rule(TernaryMatch.from_string(pattern), action, priority)


def line_instance(policy_rules, capacity=10, num_switches=3):
    topo = Topology()
    names = [f"s{i}" for i in range(num_switches)]
    for name in names:
        topo.add_switch(name, capacity)
    for a, b in zip(names, names[1:]):
        topo.add_link(a, b)
    topo.add_entry_port("in", names[0])
    topo.add_entry_port("out", names[-1])
    policy = Policy("in", policy_rules)
    routing = Routing([Path("in", "out", tuple(names))])
    return PlacementInstance(topo, routing, PolicySet([policy]))


def family_rows(encoding, family):
    """The rows of one Eq. 1-3 constraint family, read from its block."""
    return encoding.model.blocks[encoding.family_blocks[family]].to_constraints()


class TestVariables:
    def test_one_variable_per_rule_switch(self):
        instance = line_instance([
            rule("1***", Action.PERMIT, 2),
            rule("1*0*", Action.DROP, 1),
        ])
        encoding = build_encoding(instance)
        # 2 placeable rules x 3 switches
        assert encoding.num_placement_vars() == 6
        assert encoding.model.num_variables() == 6

    def test_unneeded_permit_has_no_variables(self):
        instance = line_instance([
            rule("0***", Action.PERMIT, 2),   # disjoint from the drop
            rule("1***", Action.DROP, 1),
        ])
        encoding = build_encoding(instance)
        assert encoding.num_placement_vars() == 3  # drop only


class TestConstraints:
    def test_dependency_rows(self):
        instance = line_instance([
            rule("1***", Action.PERMIT, 2),
            rule("1*0*", Action.DROP, 1),
        ])
        encoding = build_encoding(instance)
        dep_rows = family_rows(encoding, "dep")
        assert len(dep_rows) == 3  # one per switch
        for row in dep_rows:
            assert row.sense is Sense.GE
            assert row.rhs == 0.0
            assert sorted(row.expr.coeffs.values()) == [-1.0, 1.0]

    def test_path_rows(self):
        instance = line_instance([rule("1***", Action.DROP, 1)])
        encoding = build_encoding(instance)
        path_rows = family_rows(encoding, "path")
        assert len(path_rows) == 1
        row = path_rows[0]
        assert row.sense is Sense.GE and row.rhs == 1.0
        assert len(row.expr.coeffs) == 3

    def test_capacity_rows(self):
        instance = line_instance([rule("1***", Action.DROP, 1)], capacity=7)
        encoding = build_encoding(instance)
        cap_rows = family_rows(encoding, "cap")
        assert len(cap_rows) == 3
        assert all(c.sense is Sense.LE and c.rhs == 7.0 for c in cap_rows)

    def test_pinning(self):
        instance = line_instance([rule("1***", Action.DROP, 1)])
        encoding = build_encoding(instance, fixed={(("in", 1), "s0"): 1})
        pin_rows = [c for c in encoding.model.constraints if c.name.startswith("pin[")]
        assert len(pin_rows) == 1
        apply_objective(encoding, TotalRules())
        result = encoding.model.solve()
        var = encoding.var_of[(("in", 1), "s0")]
        assert result.is_one(var)

    def test_pinning_missing_variable(self):
        instance = line_instance([rule("1***", Action.DROP, 1)])
        with pytest.raises(KeyError):
            build_encoding(instance, fixed={(("in", 99), "s0"): 1})
        # Pinning a missing variable to 0 is a no-op, not an error.
        encoding = build_encoding(instance, fixed={(("in", 99), "s0"): 0})
        assert encoding.model.num_constraints() > 0


class TestMergeEncoding:
    def two_policy_instance(self, capacity=10):
        topo = Topology()
        topo.add_switch("sa", capacity)
        topo.add_switch("sb", capacity)
        topo.add_switch("mid", capacity)
        topo.add_switch("dst", capacity)
        topo.add_link("sa", "mid")
        topo.add_link("sb", "mid")
        topo.add_link("mid", "dst")
        topo.add_entry_port("a", "sa")
        topo.add_entry_port("b", "sb")
        topo.add_entry_port("o", "dst")
        shared = rule("1***", Action.DROP, 1)
        policies = PolicySet([
            Policy("a", [shared]),
            Policy("b", [shared]),
        ])
        routing = Routing([
            Path("a", "o", ("sa", "mid", "dst")),
            Path("b", "o", ("sb", "mid", "dst")),
        ])
        return PlacementInstance(topo, routing, policies)

    def test_merge_variables_created(self):
        encoding = build_encoding(self.two_policy_instance(), enable_merging=True)
        # Shared switches: mid and dst.
        assert len(encoding.merge_var_of) == 2
        rows = [c for c in encoding.model.constraints if c.name.startswith("mrg")]
        assert len(rows) == 4  # lo + hi per shared switch

    def test_merge_linking_semantics(self):
        """vm must be 1 exactly when all members are placed there."""
        encoding = build_encoding(self.two_policy_instance(), enable_merging=True)
        apply_objective(encoding, TotalRules())
        # Force both rules onto mid: the objective then counts 1, and
        # optimality requires vm=1.
        model = encoding.model
        va = encoding.var_of[(("a", 1), "mid")]
        vb = encoding.var_of[(("b", 1), "mid")]
        model.add_constraint(va.to_expr().eq(1.0))
        model.add_constraint(vb.to_expr().eq(1.0))
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        vm = encoding.merge_var_of[(0, "mid")]
        assert result.is_one(vm)
        assert result.objective == pytest.approx(1.0)

    def test_merging_tightens_optimum(self):
        instance = self.two_policy_instance()
        plain = RulePlacer().place(instance)
        from repro.core.placement import PlacerConfig

        merged = RulePlacer(PlacerConfig(enable_merging=True)).place(instance)
        assert plain.objective_value == pytest.approx(2.0)
        assert merged.objective_value == pytest.approx(1.0)
        assert merged.total_installed() == 1

    def test_merging_rescues_capacity(self):
        """Starve everything except the shared 'mid' switch (capacity
        1): unmerged needs 2 slots there, merged needs only 1."""
        instance = self.two_policy_instance(capacity=0)
        instance.topology.set_capacity("mid", 1)
        instance.capacities["mid"] = 1
        from repro.core.placement import PlacerConfig

        plain = RulePlacer().place(instance)
        merged = RulePlacer(PlacerConfig(enable_merging=True)).place(instance)
        assert plain.status is SolveStatus.INFEASIBLE
        assert merged.status is SolveStatus.OPTIMAL
        assert merged.total_installed() == 1
