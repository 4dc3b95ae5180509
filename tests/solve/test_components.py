"""Component decomposition: split correctness and exactness.

The decomposition's promise is strong -- the stitched answer *is* the
monolithic optimum -- so these tests lean on differentials: every
decomposed solve is compared against the monolithic model on the same
instance, across a seed matrix (trimmed by ``REPRO_FUZZ_QUICK`` /
sized by ``REPRO_FUZZ_SEEDS``, like the cross-engine fuzz campaigns).
"""

from __future__ import annotations

import os

import pytest

from repro.core.depgraph import build_dependency_graph
from repro.core.instance import PlacementInstance
from repro.core.objectives import (
    Combined,
    SwitchCount,
    TotalRules,
    UpstreamDrops,
    WeightedSwitches,
)
from repro.core.placement import PlacerConfig, RulePlacer
from repro.core.slicing import build_slices
from repro.core.verify import verify_placement
from repro.milp.model import SolveStatus
from repro.net.routing import Path, Routing
from repro.net.topology import Topology
from repro.policy.classbench import generate_policy_set
from repro.solve.components import (
    objective_is_separable,
    place_components,
    split_components,
)

_QUICK = os.environ.get("REPRO_FUZZ_QUICK") == "1"
_SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "4" if _QUICK else "8")))


def islands_instance(num_islands=3, rules=30, seed=0, capacity=50,
                     chain_len=3, bridge=False) -> PlacementInstance:
    """``num_islands`` disjoint switch chains, one routed policy each.

    With ``bridge=True`` the first two islands share their last switch,
    coupling them into one component.
    """
    topo = Topology()
    routing = Routing()
    ingresses = []
    for i in range(num_islands):
        chain = [f"i{i}s{j}" for j in range(chain_len)]
        if bridge and i == 1:
            chain[-1] = "i0s%d" % (chain_len - 1)
        for name in chain:
            if name not in topo:
                topo.add_switch(name, capacity)
        for a, b in zip(chain, chain[1:]):
            topo.add_link(a, b)
        port = f"in{i}"
        topo.add_entry_port(port, chain[0])
        routing.add_path(Path(port, chain[-1], tuple(chain)))
        ingresses.append(port)
    policies = generate_policy_set(ingresses, rules, seed=seed)
    return PlacementInstance(topo, routing, policies, topo.capacities())


def components_of(instance):
    depgraphs = {
        p.ingress: build_dependency_graph(p) for p in instance.policies
    }
    return split_components(instance, build_slices(instance, depgraphs))


class TestSplit:
    def test_disjoint_islands_split(self):
        instance = islands_instance(num_islands=4)
        components = components_of(instance)
        assert len(components) == 4
        assert [c.ingresses for c in components] == [
            ("in0",), ("in1",), ("in2",), ("in3",)
        ]
        # Switch sets partition: no switch in two components.
        seen = set()
        for component in components:
            assert not (component.switches & seen)
            seen |= component.switches

    def test_shared_switch_couples(self):
        instance = islands_instance(num_islands=3, bridge=True)
        components = components_of(instance)
        assert len(components) == 2
        assert ("in0", "in1") in [c.ingresses for c in components]

    def test_fattree_is_one_component(self):
        from repro.experiments.generators import ExperimentConfig, build_instance

        instance = build_instance(ExperimentConfig(
            seed=1, num_ingresses=4, rules_per_policy=15))
        # Fat-tree shortest paths share core switches, so everything
        # couples -- the decomposition must refuse, not mis-split.
        assert len(components_of(instance)) <= 2

    def test_rule_counts_cover_all_variables(self):
        instance = islands_instance(num_islands=3)
        depgraphs = {
            p.ingress: build_dependency_graph(p) for p in instance.policies
        }
        slices = build_slices(instance, depgraphs)
        components = split_components(instance, slices)
        assert sum(c.num_rules for c in components) == len(slices.domains)


class TestSeparability:
    @pytest.mark.parametrize("objective", [
        TotalRules(), UpstreamDrops(), SwitchCount(),
        WeightedSwitches(weights={}),
        Combined(((1.0, TotalRules()), (0.1, UpstreamDrops()))),
    ])
    def test_builtins_separable(self, objective):
        assert objective_is_separable(objective)

    def test_unknown_objective_not_separable(self):
        class Custom:
            pass

        assert not objective_is_separable(Custom())


class TestDifferential:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_component_objective_equals_monolithic(self, seed):
        instance = islands_instance(
            num_islands=2 + seed % 3, rules=25 + 5 * (seed % 4), seed=seed)
        mono = RulePlacer(PlacerConfig(parallel_components="off")).place(instance)
        split = RulePlacer(PlacerConfig(parallel_components="auto")).place(instance)
        assert split.status is mono.status, f"seed={seed}"
        assert split.objective_value == mono.objective_value, f"seed={seed}"
        assert not split.capacity_violations(), f"seed={seed}"
        report = verify_placement(split)
        assert report.ok, f"seed={seed}: {report}"

    @pytest.mark.parametrize("objective", [
        UpstreamDrops(), Combined(((1.0, TotalRules()), (0.05, UpstreamDrops()))),
    ])
    def test_other_objectives_agree(self, objective):
        instance = islands_instance(num_islands=3, rules=25, seed=42)
        mono = RulePlacer(PlacerConfig(
            objective=objective, parallel_components="off")).place(instance)
        split = RulePlacer(PlacerConfig(
            objective=objective, parallel_components="auto")).place(instance)
        assert split.objective_value == pytest.approx(mono.objective_value)

    def test_forced_parallel_matches_serial(self):
        instance = islands_instance(num_islands=3, rules=25, seed=9)
        serial = RulePlacer(PlacerConfig(
            parallel_components="auto", component_workers=1)).place(instance)
        parallel = RulePlacer(PlacerConfig(
            parallel_components="auto", component_workers=3)).place(instance)
        assert parallel.objective_value == serial.objective_value
        assert parallel.placed == serial.placed


class TestPlacement:
    def test_stitched_placement_covers_every_policy(self):
        instance = islands_instance(num_islands=3, rules=30, seed=2)
        placement = RulePlacer(PlacerConfig(parallel_components="auto")).place(instance)
        placed_ingresses = {key[0] for key in placement.placed}
        # Every island's drops must land somewhere.
        assert placed_ingresses == {"in0", "in1", "in2"}

    def test_infeasible_component_infeasible_overall(self):
        instance = islands_instance(num_islands=3, rules=30, seed=2, capacity=50)
        # Starve one island only.
        for j in range(3):
            instance.capacities[f"i1s{j}"] = 0
        placement = RulePlacer(PlacerConfig(parallel_components="auto")).place(instance)
        mono = RulePlacer(PlacerConfig(parallel_components="off")).place(instance)
        assert placement.status is SolveStatus.INFEASIBLE
        assert mono.status is SolveStatus.INFEASIBLE

    def test_telemetry_fields(self):
        instance = islands_instance(num_islands=3, rules=25, seed=4)
        placement = RulePlacer(PlacerConfig(parallel_components="auto")).place(instance)
        compile_stats = placement.solver_stats["compile"]
        assert compile_stats["components"] == 3
        assert compile_stats["depgraph_ms"] >= 0.0
        assert compile_stats["encode_ms"] >= 0.0
        assert compile_stats["parallel_speedup"] > 0.0
        comp = placement.solver_stats["components"]
        assert comp["count"] == 3
        assert sorted(comp["sizes"], reverse=True) == sorted(
            comp["sizes"], reverse=True)
        assert comp["mode"] in ("serial", "parallel")

    def test_monolithic_telemetry_fields(self):
        instance = islands_instance(num_islands=1, rules=25, seed=4)
        placement = RulePlacer(PlacerConfig(parallel_components="auto")).place(instance)
        compile_stats = placement.solver_stats["compile"]
        assert compile_stats["components"] == 1
        assert compile_stats["parallel_speedup"] == 1.0


class TestFallbacks:
    def test_merging_stays_monolithic(self):
        instance = islands_instance(num_islands=3, rules=20, seed=6)
        placement = RulePlacer(PlacerConfig(
            enable_merging=True, parallel_components="auto")).place(instance)
        assert placement.solver_stats["compile"]["components"] == 1

    def test_pins_stay_monolithic(self):
        instance = islands_instance(num_islands=3, rules=20, seed=6)
        placer = RulePlacer(PlacerConfig(parallel_components="auto"))
        baseline = placer.place(instance)
        key, switches = next(iter(baseline.placed.items()))
        switch = next(iter(switches))
        pinned = placer.place(instance, fixed={(key, switch): 1})
        assert pinned.solver_stats["compile"]["components"] == 1
        assert switch in pinned.placed[key]

    def test_off_switch_disables(self):
        instance = islands_instance(num_islands=3, rules=20, seed=6)
        placement = RulePlacer(PlacerConfig(parallel_components="off")).place(instance)
        assert placement.solver_stats["compile"]["components"] == 1

    def test_explicit_place_components_none_on_error(self):
        instance = islands_instance(num_islands=2, rules=15, seed=1)
        components = components_of(instance)
        bad_config = PlacerConfig(backend="does-not-exist")
        assert place_components(instance, bad_config, components) is None
