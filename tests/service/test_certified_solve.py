"""The certified greedy in front of wire solves.

``solve_task`` answers a total-rules solve with the incremental greedy
when the greedy installs exactly ``A`` rules, the counting lower bound
``len(build_slices(...).domains)``.  These tests hold that answer to the
MILP it replaces: every closing answer must equal ``RulePlacer``'s
optimum and pass the exact verifier, and every declining one must be
the MILP path's answer.
"""

from __future__ import annotations

import pytest

from repro import io as repro_io
from repro.core import incremental
from repro.core.depgraph import build_dependency_graph
from repro.core.incremental import certified_greedy, greedy_place
from repro.core.placement import RulePlacer
from repro.core.slicing import build_slices, relevant_drops
from repro.core.verify import verify_placement
from repro.experiments import ExperimentConfig, build_instance
from repro.service import PlacementService, ServiceConfig
from repro.service.protocol import DeltaRequest, SolveRequest
from repro.service.workers import solve_task

#: Experiment 4's capacity sweep on its 16x25-rule shape.
EXP4_CAPACITIES = (10, 15, 20, 25, 30, 40, 60, 150)
EXP4_SEEDS = (3, 4, 5)
#: perfbench's ``solve-fresh`` shape.
FRESH_SHAPE = {"num_ingresses": 16, "rules_per_policy": 100,
               "num_paths": 32, "capacity": 235}


def _sweep():
    for capacity in EXP4_CAPACITIES:
        for seed in EXP4_SEEDS:
            yield f"exp4-C{capacity}-s{seed}", ExperimentConfig(
                seed=seed, num_ingresses=16, rules_per_policy=25,
                num_paths=32, capacity=capacity)
    for seed in range(20):
        yield f"fresh-s{seed}", ExperimentConfig(seed=seed, **FRESH_SHAPE)


def _graphs(instance):
    return {policy.ingress: build_dependency_graph(policy)
            for policy in instance.policies}


def _certificate(payload):
    return payload["placement"]["solver_stats"].get("certificate")


class TestSoundnessSweep:
    """exp4's capacity sweep plus 20 ``solve-fresh`` instances."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        outcomes = []
        for name, config in _sweep():
            instance = build_instance(config)
            payload = solve_task(SolveRequest(instance))
            outcomes.append((name, instance, payload,
                             RulePlacer().place(instance)))
        return outcomes

    def test_closing_answers_are_the_milp_optimum(self, outcomes):
        for name, instance, payload, milp in outcomes:
            certificate = _certificate(payload)
            if certificate is None:
                continue
            bound = len(build_slices(instance, _graphs(instance)).domains)
            assert certificate == {"bound": bound, "closes": True}, name
            assert payload["placement"]["status"] == "optimal", name
            assert payload["placement"]["solver_stats"]["method"] == \
                "greedy", name
            assert milp.status.value == "optimal", name
            assert payload["objective"] == bound, name
            assert milp.objective_value == pytest.approx(bound), name
            assert payload["installed_rules"] == milp.total_installed(), name
            placement = repro_io.placement_from_dict(payload["placement"],
                                                     instance)
            assert verify_placement(placement).ok, name

    def test_declining_answers_are_the_milp_answer(self, outcomes):
        for name, _instance, payload, milp in outcomes:
            if _certificate(payload) is not None:
                continue
            stats = payload["placement"]["solver_stats"]
            assert "method" not in stats, name
            assert payload["placement"]["status"] == milp.status.value, name
            assert payload["objective"] == milp.objective_value, name

    def test_sweep_both_closes_and_declines(self, outcomes):
        closing = {name for name, _i, payload, _m in outcomes
                   if _certificate(payload) is not None}
        assert all(f"fresh-s{seed}" in closing for seed in range(20))
        assert all(f"exp4-C{c}-s{s}" in closing
                   for c in (30, 40, 60, 150) for s in EXP4_SEEDS)
        assert not any(f"exp4-C{c}-s{s}" in closing
                       for c in (10, 15, 20) for s in EXP4_SEEDS)
        assert len(closing) < len(outcomes)

    def test_compile_stats_time_the_depgraph(self, outcomes):
        for name, _instance, payload, _milp in outcomes:
            stats = payload["placement"]["solver_stats"]
            assert stats["compile"]["depgraph_ms"] > 0.0, name
            if _certificate(payload) is not None:
                assert set(stats) == {"method", "certificate", "compile"}
                assert set(stats["compile"]) == {"depgraph_ms"}


class TestWhenTheBoundApplies:
    """Only a total-rules, unmerged solve on ``highs`` or an alias."""

    @pytest.fixture(scope="class")
    def instance(self):
        return build_instance(ExperimentConfig(
            k=4, num_paths=6, rules_per_policy=6, capacity=60, seed=1))

    @pytest.mark.parametrize("backend", ["highs", "scipy", "scipy-highs"])
    def test_default_backend_and_aliases_close(self, instance, backend):
        payload = solve_task(SolveRequest(instance, backend=backend))
        assert _certificate(payload)["closes"] is True

    @pytest.mark.parametrize("fields", [
        {"objective": "upstream"},
        {"objective": "combined"},
        {"merging": True},
        {"backend": "bnb"},
    ])
    def test_other_requests_take_the_pipeline(self, instance, fields):
        payload = solve_task(SolveRequest(instance, **fields))
        assert payload["feasible"]
        stats = payload["placement"]["solver_stats"]
        assert "certificate" not in stats and "method" not in stats
        assert "encode_ms" in stats["compile"]


class TestRelevance:
    """The greedy keeps exactly the drops path slicing keeps."""

    @pytest.mark.parametrize("seed", range(4))
    def test_relevant_drops_match_build_slices(self, seed, monkeypatch):
        instance = build_instance(ExperimentConfig(
            seed=seed, num_ingresses=6, rules_per_policy=30, num_paths=24,
            capacity=10_000, flow_slicing=True))
        graphs = _graphs(instance)
        slices = build_slices(instance, graphs)
        asked = []

        def recording(drops, path):
            kept = tuple(relevant_drops(drops, path))
            asked.append((path, tuple(rule.priority for rule in kept)))
            return kept

        monkeypatch.setattr(incremental, "relevant_drops", recording)
        spare = dict(instance.capacities)
        irrelevant = 0
        for policy in instance.policies:
            paths = instance.routing.paths(policy.ingress)
            asked.clear()
            placed = greedy_place(policy, paths, graphs[policy.ingress],
                                  spare)
            assert placed is not None
            assert [path for path, _kept in asked] == list(paths)
            drops = sum(rule.is_drop for rule in policy.rules)
            for index, (path, kept) in enumerate(asked):
                assert kept == slices.drops_for_path(policy.ingress, index)
                irrelevant += drops - len(kept)
                on_path = {key[1] for key, switches in placed.items()
                           if switches & set(path.switches)}
                assert set(kept) <= on_path
            # Every key the greedy placed has a placement domain, on a
            # switch of that domain, and every key with one was placed.
            assert set(placed) == {
                key for key in slices.domains if key[0] == policy.ingress}
            for key, switches in placed.items():
                assert switches <= set(slices.domain(key))
        assert irrelevant > 0  # the flows do cut drops off some paths

    def test_certified_bound_is_the_domain_count(self):
        instance = build_instance(ExperimentConfig(
            seed=2, num_ingresses=6, rules_per_policy=30, num_paths=24,
            capacity=10_000, flow_slicing=True))
        graphs = _graphs(instance)
        placement = certified_greedy(instance, graphs)
        assert placement is not None
        bound = placement.solver_stats["certificate"]["bound"]
        assert bound == len(build_slices(instance, graphs).domains)
        assert placement.total_installed() == bound
        assert RulePlacer().place(instance).objective_value == bound


class TestServed:
    """A certified answer is served like any other optimal answer."""

    def test_cached_and_deployable(self):
        instance = build_instance(ExperimentConfig(
            k=4, num_paths=6, rules_per_policy=5, seed=2))
        with PlacementService(ServiceConfig(executor="inline")) as service:
            cold = service.handle(SolveRequest(instance), timeout=60.0)
            warm = service.handle(SolveRequest(instance), timeout=60.0)
            assert cold.ok and cold.served == "solved"
            assert _certificate(cold.result)["closes"] is True
            assert warm.served == "cache" and warm.result == cold.result
            assert cold.cache_key == warm.cache_key == \
                SolveRequest(instance).cache_key()
            deployed = service.handle(
                SolveRequest(instance, deploy_as="prod"), timeout=60.0)
            assert deployed.ok and _certificate(deployed.result)
            policy = repro_io.policy_to_dict(next(iter(instance.policies)))
            delta = service.handle(DeltaRequest(
                deployment="prod", op="modify", policy=policy), timeout=60.0)
            assert delta.ok and delta.served == "session"
