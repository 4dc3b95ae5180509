"""Differential harness for solver sessions.

For each seed, one random delta stream (reroutes, policy
modifications, remove+reinstall cycles, with the greedy stage on and
off) is replayed twice from the same base placement --

* **warm**: an :class:`~repro.core.incremental.IncrementalDeployer`
  with an attached :class:`~repro.solve.session.SolverSession`, whose
  pinned memo supplies every dependency graph;
* **cold**: an identical deployer with no session.

A session changes where the dependency graph comes from and nothing
else, so at *every step* the two answers must be identical: the same
status, the same installed-rule count and the same placed map.  Both
deployers then commit that placement, and the combined live placement
is exactly verified.

Environment knobs (CI's quick profile):

* ``REPRO_WARM_QUICK=1``  -- trim to a fast subset of seeds;
* ``REPRO_WARM_SEEDS=N``  -- explicit seed count override.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.incremental import IncrementalDeployer
from repro.core.instance import PlacementInstance
from repro.core.placement import RulePlacer
from repro.core.verify import verify_placement
from repro.net.generators import leaf_spine, random_graph, ring
from repro.net.routing import ShortestPathRouter
from repro.policy.classbench import PolicyGeneratorConfig, generate_policy_set
from repro.policy.policy import Policy
from repro.solve.session import SolverSession

_QUICK = os.environ.get("REPRO_WARM_QUICK") == "1"
_NUM_SEEDS = int(os.environ.get("REPRO_WARM_SEEDS",
                                "20" if _QUICK else "100"))
_SEEDS = range(_NUM_SEEDS)
_STEPS = 6 if _QUICK else 8


def build_scenario(seed: int) -> PlacementInstance:
    """A random small instance whose sub-ILPs solve in milliseconds."""
    rng = random.Random(77_000 + seed)
    capacity = rng.choice([4, 6, 10])
    kind = rng.choice(["leaf_spine", "ring", "random"])
    if kind == "leaf_spine":
        topo = leaf_spine(rng.randint(2, 3), 2, capacity=capacity)
    elif kind == "ring":
        topo = ring(rng.randint(4, 5), capacity=capacity)
    else:
        topo = random_graph(rng.randint(5, 7), degree=3,
                            capacity=capacity, seed=seed)
    ports = [p.name for p in topo.entry_ports]
    ingresses = rng.sample(ports, rng.randint(2, min(3, len(ports))))
    router = ShortestPathRouter(topo, seed=seed)
    routing = router.random_routing(
        rng.randint(len(ingresses), 2 * len(ingresses)), ingresses=ingresses
    )
    config = PolicyGeneratorConfig(
        num_rules=rng.randint(3, 7),
        drop_fraction=rng.uniform(0.3, 0.6),
        nested_fraction=rng.uniform(0.2, 0.5),
    )
    policies = generate_policy_set(
        ingresses, rules_per_policy=config.num_rules, seed=seed,
        config=config,
    )
    return PlacementInstance(topo, routing, policies)


def _check_step(ctx, warm_result, cold_result):
    assert warm_result.status is cold_result.status, (
        f"{ctx}: status diverged "
        f"(warm={warm_result.status}, cold={cold_result.status})"
    )
    assert warm_result.method == cold_result.method, ctx
    assert warm_result.installed_rules == cold_result.installed_rules, (
        f"{ctx}: objective diverged "
        f"(warm={warm_result.installed_rules}, "
        f"cold={cold_result.installed_rules})"
    )
    assert warm_result.placed == cold_result.placed, (
        f"{ctx}: placed maps diverged")


def replay_stream(seed: int, steps: int = _STEPS):
    """Replay one seeded delta stream with and without a session.

    Returns ``{"methods": [...], "depgraph": memo stats}``, or None when
    the base instance is infeasible (no stream to replay -- the seed
    contributes nothing either way).
    """
    rng = random.Random(seed)
    instance = build_scenario(seed)
    base = RulePlacer().place(instance)
    if not base.is_feasible:
        return None
    session = SolverSession()
    warm = IncrementalDeployer(base)
    warm.attach_session(session)
    cold = IncrementalDeployer(base)
    router = ShortestPathRouter(instance.topology, seed=seed + 1)
    methods = []

    for step in range(steps):
        ingresses = list(warm._state)
        if not ingresses:
            break
        ingress = rng.choice(ingresses)
        policy, paths, _ = warm._state[ingress]
        try_greedy = rng.random() < 0.4
        op = rng.choice(["reroute", "modify", "reroute", "remove_install"])
        ctx = f"seed={seed} step={step} op={op} ingress={ingress!r}"

        if op == "reroute":
            routing = router.random_routing(rng.randint(1, 3),
                                            ingresses=[ingress])
            new_paths = routing.paths(ingress)
            if not new_paths:
                continue
            warm_r = warm.preview_reroute(ingress, new_paths,
                                          try_greedy=try_greedy)
            cold_r = cold.preview_reroute(ingress, new_paths,
                                          try_greedy=try_greedy)
            _check_step(ctx, warm_r, cold_r)
            if warm_r.is_feasible:
                warm.apply_reroute(ingress, new_paths, warm_r.placed)
                cold.apply_reroute(ingress, new_paths, warm_r.placed)
        elif op == "modify":
            rules = policy.sorted_rules()
            if len(rules) <= 1:
                continue
            dropped = rng.choice(rules)
            new_policy = Policy(ingress,
                                [r for r in rules if r is not dropped])
            warm_r = warm.preview_modify(new_policy, try_greedy=try_greedy)
            cold_r = cold.preview_modify(new_policy, try_greedy=try_greedy)
            _check_step(ctx, warm_r, cold_r)
            if warm_r.is_feasible:
                warm.apply_modify(new_policy, warm_r.placed)
                cold.apply_modify(new_policy, warm_r.placed)
        else:  # remove + reinstall
            warm.remove_policy(ingress)
            cold.remove_policy(ingress)
            warm_r = warm.preview_install(policy, paths,
                                          try_greedy=try_greedy)
            cold_r = cold.preview_install(policy, paths,
                                          try_greedy=try_greedy)
            _check_step(ctx, warm_r, cold_r)
            if warm_r.is_feasible:
                warm.commit_install(policy, paths, warm_r.placed)
                cold.commit_install(policy, paths, warm_r.placed)
        methods.append(warm_r.method)

        # Both deployers committed the same placement; the live state
        # must be exactly verifiable after every step.
        assert warm.state_digest() == cold.state_digest(), ctx
        report = verify_placement(warm.as_placement())
        assert report.ok, f"{ctx}: {report.errors[:2]}"

    return {"methods": methods, "depgraph": session.depgraphs.stats()}


@pytest.mark.parametrize("seed", _SEEDS)
def test_warm_equals_cold_stream(seed):
    replay_stream(seed)


class TestSessionBehavior:
    """Targeted session semantics beyond raw stream equivalence."""

    def test_warm_machinery_is_actually_exercised(self):
        """Across a handful of streams the session side must run the
        sub-ILP and serve graphs from its memo -- a harness whose
        deltas greedy answers alone, or whose memo never hits, proves
        nothing about the session's sub-ILP path."""
        ilp_steps = hits = 0
        for seed in range(10):
            telemetry = replay_stream(seed)
            if telemetry is None:
                continue
            ilp_steps += telemetry["methods"].count("ilp")
            hits += telemetry["depgraph"]["hits"]
        assert ilp_steps > 0
        assert hits > 0

    def test_detach_restores_cold_path(self):
        for seed in range(20):
            instance = build_scenario(seed)
            base = RulePlacer().place(instance)
            if not base.is_feasible:
                continue
            deployer = IncrementalDeployer(base)
            session = SolverSession()
            deployer.attach_session(session)
            assert deployer.session is session
            deployer.detach_session()
            assert deployer.session is None
            ingress = next(iter(deployer._state))
            _policy, paths, _ = deployer._state[ingress]
            result = deployer.preview_reroute(ingress, paths,
                                              try_greedy=False)
            assert result.method == "ilp"
            assert session.depgraphs.stats() == {
                "hits": 0, "misses": 0, "entries": 0}
            return
        pytest.skip("no feasible scenario in the first 20 seeds")
