"""Round-trip tests for JSON serialization."""

from __future__ import annotations

import json

import pytest

from repro import io as repro_io
from repro.core.placement import PlacerConfig, RulePlacer
from repro.core.verify import verify_placement
from repro.experiments import ExperimentConfig, build_instance
from repro.milp.model import SolveStatus


@pytest.fixture(scope="module")
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=12, rules_per_policy=8, capacity=30,
        num_ingresses=4, seed=9, blacklist_rules=2, flow_slicing=True,
    ))


class TestInstanceRoundTrip:
    def test_topology(self, instance):
        data = repro_io.topology_to_dict(instance.topology)
        rebuilt = repro_io.topology_from_dict(data)
        assert set(rebuilt.switch_names) == set(instance.topology.switch_names)
        assert rebuilt.num_links() == instance.topology.num_links()
        assert {p.name for p in rebuilt.entry_ports} == \
               {p.name for p in instance.topology.entry_ports}
        assert rebuilt.capacities() == instance.topology.capacities()

    def test_policies(self, instance):
        data = repro_io.policies_to_dict(instance.policies)
        rebuilt = repro_io.policies_from_dict(data)
        assert set(rebuilt.ingresses) == set(instance.policies.ingresses)
        for policy in instance.policies:
            twin = rebuilt[policy.ingress]
            assert len(twin) == len(policy)
            for rule in policy.rules:
                copy = twin.rule_by_priority(rule.priority)
                assert copy.match == rule.match
                assert copy.action == rule.action
                assert copy.name == rule.name

    def test_routing_with_flows(self, instance):
        data = repro_io.routing_to_dict(instance.routing)
        rebuilt = repro_io.routing_from_dict(data)
        original = instance.routing.all_paths()
        restored = rebuilt.all_paths()
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert a.switches == b.switches
            assert a.flow == b.flow

    def test_full_instance_files(self, instance, tmp_path):
        path = tmp_path / "instance.json"
        repro_io.save_instance(instance, str(path))
        rebuilt = repro_io.load_instance(str(path))
        assert rebuilt.summary() == instance.summary()
        # Solving the rebuilt instance gives the same optimum.
        a = RulePlacer().place(instance)
        b = RulePlacer().place(rebuilt)
        assert a.objective_value == b.objective_value

    def test_schema_version_checked(self, instance):
        data = repro_io.instance_to_dict(instance)
        data["schema_version"] = 99
        with pytest.raises(ValueError):
            repro_io.instance_from_dict(data)


class TestPlacementRoundTrip:
    def test_plain(self, instance, tmp_path):
        placement = RulePlacer().place(instance)
        path = tmp_path / "placement.json"
        repro_io.save_placement(placement, str(path))
        rebuilt = repro_io.load_placement(str(path), instance)
        assert rebuilt.status is placement.status
        assert rebuilt.placed == placement.placed
        assert rebuilt.total_installed() == placement.total_installed()
        assert verify_placement(rebuilt).ok

    def test_merged_load_accounting_survives(self, instance, tmp_path):
        placement = RulePlacer(PlacerConfig(enable_merging=True)).place(instance)
        assert placement.merged, "fixture should produce active merges"
        path = tmp_path / "placement.json"
        repro_io.save_placement(placement, str(path))
        rebuilt = repro_io.load_placement(str(path), instance)
        assert rebuilt.merged == placement.merged
        # Merge-aware counting must survive (merge plan is rebuilt).
        assert rebuilt.total_installed() == placement.total_installed()
        assert rebuilt.switch_loads() == placement.switch_loads()

    def test_infeasible_round_trip(self, instance, tmp_path):
        from repro.core.placement import Placement

        placement = Placement(instance, SolveStatus.INFEASIBLE)
        path = tmp_path / "inf.json"
        repro_io.save_placement(placement, str(path))
        rebuilt = repro_io.load_placement(str(path), instance)
        assert rebuilt.status is SolveStatus.INFEASIBLE
        assert rebuilt.placed == {}

    def test_json_is_human_readable(self, instance, tmp_path):
        placement = RulePlacer().place(instance)
        path = tmp_path / "placement.json"
        repro_io.save_placement(placement, str(path))
        data = json.loads(path.read_text())
        assert data["status"] == "optimal"
        entry = data["placed"][0]
        assert {"ingress", "priority", "switches"} <= set(entry)


#: One key a worker-run decoder requires, deleted: the decoder's input
#: (a delta's policy or paths, a verify's placement), the keys leading
#: to the dict that holds the key, and the key.
_REQUIRED = {
    "rule-priority": ("policy", ("rules", 0), "priority"),
    "rule-match": ("policy", ("rules", 0), "match"),
    "rule-action": ("policy", ("rules", 0), "action"),
    "policy-ingress": ("policy", (), "ingress"),
    "policy-rules": ("policy", (), "rules"),
    "path-ingress": ("paths", (0,), "ingress"),
    "path-egress": ("paths", (0,), "egress"),
    "path-switches": ("paths", (0,), "switches"),
    "placement-status": ("placement", (), "status"),
    "placement-placed": ("placement", (), "placed"),
    "placed-ingress": ("placement", ("placed", 0), "ingress"),
    "placed-priority": ("placement", ("placed", 0), "priority"),
    "placed-switches": ("placement", ("placed", 0), "switches"),
    "merged-gid": ("placement", ("merged", 0), "gid"),
    "merged-switches": ("placement", ("merged", 0), "switches"),
}


class TestMissingKeys:
    """The decoders a session or verify worker runs name a missing key
    in a ValueError, which the service answers ``bad_request``; the
    bare KeyError it replaced answered ``error``."""

    @pytest.fixture(scope="class")
    def inputs(self, instance):
        placement = RulePlacer(PlacerConfig(enable_merging=True)).place(
            instance)
        assert placement.merged, "fixture should produce active merges"
        return {
            "policy": repro_io.policy_to_dict(next(iter(instance.policies))),
            "paths": repro_io.routing_to_dict(instance.routing),
            "placement": repro_io.placement_to_dict(placement),
        }

    @pytest.mark.parametrize("case", sorted(_REQUIRED))
    def test_names_the_missing_key(self, instance, inputs, case):
        which, parents, key = _REQUIRED[case]
        decode = {
            "policy": repro_io.policy_from_dict,
            "paths": repro_io.paths_from_dict,
            "placement": lambda data: repro_io.placement_from_dict(
                data, instance),
        }[which]
        data = json.loads(json.dumps(inputs[which]))
        decode(json.loads(json.dumps(data)))  # intact, it decodes
        target = data
        for step in parents:
            target = target[step]
        del target[key]
        with pytest.raises(ValueError, match=f"has no '{key}'"):
            decode(data)
