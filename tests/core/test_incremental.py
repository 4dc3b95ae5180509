"""Tests for incremental deployment (Section IV-E / Experiment 5)."""

from __future__ import annotations

import random

import pytest

from repro.core.depgraph import build_dependency_graph
from repro.core.incremental import IncrementalDeployer, IncrementalResult
from repro.core.instance import PlacementInstance
from repro.core.placement import Placement, RulePlacer
from repro.core.verify import verify_placement
from repro.digest import canonical_digest
from repro.milp.model import SolveStatus
from repro.net.fattree import fattree
from repro.net.topology import Topology
from repro.net.routing import Path, Routing, ShortestPathRouter
from repro.policy.classbench import (
    PolicyGenerator,
    PolicyGeneratorConfig,
    generate_policy_set,
)
from repro.policy.policy import Policy, PolicySet
from repro.policy.rule import Action, Rule
from repro.policy.ternary import TernaryMatch


def rule(pattern: str, action: Action, priority: int) -> Rule:
    return Rule(TernaryMatch.from_string(pattern), action, priority)


@pytest.fixture
def deployed_network():
    """A small fat-tree with a solved base placement and headroom."""
    topo = fattree(4, capacity=40)
    ports = [p.name for p in topo.entry_ports]
    ingresses = ports[:4]
    router = ShortestPathRouter(topo, seed=5)
    routing = router.random_routing(8, ingresses=ingresses)
    policies = generate_policy_set(ingresses, rules_per_policy=10, seed=5)
    instance = PlacementInstance(topo, routing, policies)
    base = RulePlacer().place(instance)
    assert base.is_feasible
    return topo, router, ports, base


class TestInstall:
    def test_greedy_install(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        before = deployer.total_installed()
        new_policy = generate_policy_set([ports[10]], rules_per_policy=6, seed=9)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])
        result = deployer.install_policy(new_policy, [path])
        assert result.is_feasible
        assert result.method == "greedy"
        assert deployer.total_installed() > before
        assert verify_placement(deployer.as_placement()).ok

    def test_ilp_fallback(self, deployed_network):
        """Disable the heuristic: the sub-ILP must also succeed."""
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        new_policy = generate_policy_set([ports[10]], rules_per_policy=6, seed=9)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])
        result = deployer.install_policy(new_policy, [path], try_greedy=False)
        assert result.is_feasible
        assert result.method == "ilp"
        assert verify_placement(deployer.as_placement()).ok

    def test_sat_engine_fallback(self, deployed_network):
        """The feasibility-only SAT engine also serves as the fallback."""
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base, engine="sat")
        new_policy = generate_policy_set([ports[10]], rules_per_policy=6, seed=9)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])
        result = deployer.install_policy(new_policy, [path], try_greedy=False)
        assert result.is_feasible
        assert result.method == "sat"
        assert verify_placement(deployer.as_placement()).ok

    def test_unknown_engine_rejected(self, deployed_network):
        topo, router, ports, base = deployed_network
        with pytest.raises(ValueError):
            IncrementalDeployer(base, engine="quantum")

    def test_duplicate_ingress_rejected(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        existing = next(iter(base.instance.policies))
        with pytest.raises(ValueError):
            deployer.install_policy(existing, [])

    def test_infeasible_install_leaves_state_untouched(self, deployed_network):
        """A policy too large for the spare capacity is rejected whole."""
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        # 16 distinct singleton drops, but only 2 spare slots anywhere
        # on the target path.
        big = Policy(ports[10], [
            Rule(TernaryMatch.exact(4, i), Action.DROP, i + 1) for i in range(16)
        ])
        path = router.shortest_path(ports[10], ports[0])
        for switch in path.switches:
            deployer._loads[switch] = deployer.base_capacities[switch] - 2
        result = deployer.install_policy(big, [path])
        assert not result.is_feasible
        assert ports[10] not in deployer._state


class TestRemoveAndModify:
    def test_remove_frees_capacity(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        ingress = next(iter(base.instance.policies)).ingress
        before = deployer.total_installed()
        freed = deployer.remove_policy(ingress)
        assert freed > 0
        assert deployer.total_installed() == before - freed
        assert verify_placement(deployer.as_placement()).ok

    def test_modify_policy(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        ingress = next(iter(base.instance.policies)).ingress
        updated = generate_policy_set([ingress], rules_per_policy=8, seed=77)[ingress]
        result = deployer.modify_policy(updated)
        assert result.is_feasible
        combined = deployer.as_placement()
        assert verify_placement(combined).ok
        # The deployed policy for this ingress is the updated one.
        assert combined.instance.policies[ingress] is updated

    def test_modify_unknown_rejected(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        with pytest.raises(ValueError):
            deployer.modify_policy(Policy("nope"))


class TestReroute:
    def test_reroute_keeps_semantics(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        ingress = next(iter(base.instance.policies)).ingress
        new_paths = [
            router.shortest_path(ingress, ports[12]),
            router.shortest_path(ingress, ports[13]),
        ]
        result = deployer.reroute_policy(ingress, new_paths)
        assert result.is_feasible
        combined = deployer.as_placement()
        assert verify_placement(combined).ok
        assert set(combined.instance.routing.paths(ingress)) == set(new_paths)

    def test_reroute_rollback_on_infeasible(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        ingress = next(iter(base.instance.policies)).ingress
        old_installed = deployer.total_installed()
        # Construct an impossible target: a path of zero-spare switches.
        path = router.shortest_path(ingress, ports[12])
        for switch in path.switches:
            deployer._loads[switch] = deployer.base_capacities[switch]
        # Free only what this policy held (reroute does that), then ask
        # for the saturated path.
        result = deployer.reroute_policy(ingress, [path], try_greedy=True)
        if not result.is_feasible:
            # Rollback restored the original state.
            assert deployer.total_installed() == old_installed
            assert ingress in deployer._state
            assert verify_placement(deployer.as_placement()).ok


def _two_switch_deployer():
    """An empty deployed network on two unit-capacity switches.

    ``in1`` enters at ``s1``; ``out1`` exits at ``s2``, ``out2`` at
    ``s1`` -- so a path can be confined to ``s1`` alone via ``out2``.
    """
    topo = Topology()
    topo.add_switch("s1", 1)
    topo.add_switch("s2", 1)
    topo.add_link("s1", "s2")
    topo.add_entry_port("in1", "s1")
    topo.add_entry_port("out1", "s2")
    topo.add_entry_port("out2", "s1")
    base = RulePlacer().place(PlacementInstance(topo, Routing(), PolicySet()))
    assert base.is_feasible
    return IncrementalDeployer(base)


class TestFallbackLadder:
    """The ISSUE's fallback order: greedy, then sub-ILP, then report
    infeasible -- each stage observable through ``result.method``."""

    def test_greedy_failure_falls_through_to_sub_ilp(self):
        """First-fit greedy starves the ingress switch; the sub-ILP
        places globally and succeeds where greedy gave up."""
        deployer = _two_switch_deployer()
        # Path 1 spans both switches but only carries flow 00; path 2
        # is confined to s1 and carries flow 01.
        long_path = Path("in1", "out1", ("s1", "s2"),
                         TernaryMatch.from_string("00"))
        short_path = Path("in1", "out2", ("s1",),
                          TernaryMatch.from_string("01"))
        policy = Policy("in1", [
            rule("00", Action.DROP, 1),   # only relevant to the long path
            rule("01", Action.DROP, 2),   # only placeable on s1
        ])
        # Greedy walks path 1 first and burns s1 (closest to ingress)
        # on the 00-drop, leaving nothing for the 01-drop that *must*
        # sit on s1; the sub-ILP instead puts 00 on s2 and 01 on s1.
        result = deployer.install_policy(policy, [long_path, short_path])
        assert result.is_feasible
        assert result.method == "ilp"
        assert result.placed[("in1", 1)] == frozenset({"s2"})
        assert result.placed[("in1", 2)] == frozenset({"s1"})
        assert verify_placement(deployer.as_placement()).ok

    def test_ladder_exhausted_reports_infeasible(self):
        """Both stages fail: two drops forced onto one unit-capacity
        switch.  The sub-ILP's verdict is reported, nothing commits."""
        deployer = _two_switch_deployer()
        short_path = Path("in1", "out2", ("s1",))
        policy = Policy("in1", [
            rule("00", Action.DROP, 1),
            rule("01", Action.DROP, 2),
        ])
        before = deployer.total_installed()
        result = deployer.install_policy(policy, [short_path])
        assert not result.is_feasible
        assert result.method == "ilp"      # the last stage that ran
        assert result.status is SolveStatus.INFEASIBLE
        assert "in1" not in deployer._state
        assert deployer.total_installed() == before

    def test_greedy_runs_before_sub_ilp(self, deployed_network, monkeypatch):
        """Stage order is observable: greedy is consulted first, and
        its failure (None) is what triggers the sub-solver."""
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        calls = []
        original_greedy = deployer._greedy_place
        original_sub = deployer._sub_ilp

        def spy_greedy(policy, paths, graph=None):
            calls.append("greedy")
            original_greedy(policy, paths, graph)  # would succeed...
            return None                            # ...but report failure
        def spy_sub(policy, paths, time_limit, depgraphs=None):
            calls.append("ilp")
            return original_sub(policy, paths, time_limit,
                                depgraphs=depgraphs)

        monkeypatch.setattr(deployer, "_greedy_place", spy_greedy)
        monkeypatch.setattr(deployer, "_sub_ilp", spy_sub)
        new_policy = generate_policy_set(
            [ports[10]], rules_per_policy=6, seed=9)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])
        result = deployer.install_policy(new_policy, [path])
        assert calls == ["greedy", "ilp"]
        assert result.is_feasible
        assert result.method == "ilp"

    def test_spare_exhaustion_then_recovery(self, deployed_network):
        """With every switch saturated the whole ladder fails; freeing
        a deployed policy restores exactly enough spare to reinstall."""
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        for switch in deployer.base_capacities:
            deployer._loads[switch] = deployer.base_capacities[switch]
        assert all(v == 0 for v in deployer.spare_capacities().values())
        victim = next(iter(base.instance.policies))
        paths = list(base.instance.routing.paths(victim.ingress))
        new_policy = generate_policy_set(
            [ports[10]], rules_per_policy=4, seed=11)[ports[10]]
        result = deployer.install_policy(
            new_policy, [router.shortest_path(ports[10], victim.ingress)])
        assert not result.is_feasible
        assert result.method == "ilp"
        # Remove the victim: its slots come back, and the victim itself
        # can be reinstalled into the freed spare capacity.
        freed = deployer.remove_policy(victim.ingress)
        assert freed > 0
        retry = deployer.install_policy(victim, paths)
        assert retry.is_feasible


class TestPreviewCommit:
    """The serving layer's split: compute in a worker (preview), apply
    in the daemon (commit) -- previews must never touch live state."""

    def test_preview_install_is_side_effect_free(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        before_installed = deployer.total_installed()
        before_spare = deployer.spare_capacities()
        new_policy = generate_policy_set(
            [ports[10]], rules_per_policy=6, seed=9)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])
        result = deployer.preview_install(new_policy, [path])
        assert result.is_feasible
        assert ports[10] not in deployer._state
        assert deployer.total_installed() == before_installed
        assert deployer.spare_capacities() == before_spare

    def test_commit_applies_previewed_placement(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        new_policy = generate_policy_set(
            [ports[10]], rules_per_policy=6, seed=9)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])
        result = deployer.preview_install(new_policy, [path])
        deployer.commit_install(new_policy, [path], result.placed)
        assert ports[10] in deployer._state
        assert verify_placement(deployer.as_placement()).ok
        with pytest.raises(ValueError):
            deployer.commit_install(new_policy, [path], result.placed)

    def test_preview_reroute_restores_state(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        ingress = next(iter(base.instance.policies)).ingress
        before_installed = deployer.total_installed()
        before_paths = deployer._state[ingress][1]
        result = deployer.preview_reroute(
            ingress, [router.shortest_path(ingress, ports[12])])
        assert result.is_feasible
        assert deployer.total_installed() == before_installed
        assert deployer._state[ingress][1] == before_paths
        # Applying the preview swaps the placement in.
        deployer.apply_reroute(
            ingress, [router.shortest_path(ingress, ports[12])],
            result.placed)
        assert verify_placement(deployer.as_placement()).ok

    def test_preview_modify_restores_state(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        ingress = next(iter(base.instance.policies)).ingress
        original = deployer._state[ingress][0]
        updated = generate_policy_set(
            [ingress], rules_per_policy=8, seed=77)[ingress]
        result = deployer.preview_modify(updated)
        assert result.is_feasible
        assert deployer._state[ingress][0] is original
        deployer.apply_modify(updated, result.placed)
        assert deployer._state[ingress][0] is updated
        assert verify_placement(deployer.as_placement()).ok


class TestBase:
    def test_requires_feasible_base(self, figure3_instance):
        infeasible = Placement(figure3_instance, SolveStatus.INFEASIBLE)
        with pytest.raises(ValueError):
            IncrementalDeployer(infeasible)

    def test_spare_capacity_accounting(self, deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        expected = base.spare_capacities()
        assert deployer.spare_capacities() == expected


class TestSessionDepgraphReuse:
    """Deltas through a session must not recompute dependency graphs.
    The deployer resolves each policy's graph through the session's
    pinned digest-keyed memo, so after the first delta the per-delta
    ``depgraph_ms`` is (near) zero."""

    def _session_deployer(self, deployed_network):
        from repro.solve.session import SolverSession

        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        session = SolverSession()
        deployer.attach_session(session)
        return deployer, session, router, ports

    def test_depgraph_cached_across_warm_deltas(self, deployed_network):
        deployer, session, router, ports = self._session_deployer(
            deployed_network)
        new_policy = generate_policy_set(
            [ports[10]], rules_per_policy=8, seed=9)[ports[10]]
        path_a = router.shortest_path(ports[10], ports[0])
        path_b = router.shortest_path(ports[10], ports[1])

        first = deployer.install_policy(new_policy, [path_a],
                                        try_greedy=False)
        assert first.is_feasible and first.method == "ilp"
        # The first delta computes the graph...
        assert session.depgraphs.stats()["misses"] == 1

        # Re-deltas on the same policy content: graph comes from the
        # pinned memo, never recomputed.
        for target in (path_b, path_a, path_b):
            result = deployer.reroute_policy(ports[10], [target],
                                             try_greedy=False)
            assert result.is_feasible and result.method == "ilp"
            compile_stats = result.solver_stats["compile"]
            # Memo hit: bounded far below any real recomputation
            # (building this graph cold costs ~1ms+; a dict hit ~1us).
            assert compile_stats["depgraph_ms"] < 0.5, compile_stats
        stats = session.depgraphs.stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 3

    def test_cold_deployer_still_reports_depgraph_time(self,
                                                       deployed_network):
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        new_policy = generate_policy_set(
            [ports[10]], rules_per_policy=8, seed=9)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])
        result = deployer.install_policy(new_policy, [path],
                                         try_greedy=False)
        assert result.is_feasible
        compile_stats = result.solver_stats["compile"]
        assert "depgraph_ms" in compile_stats

    def test_attach_requires_ilp_engine(self, deployed_network):
        from repro.solve.session import SolverSession

        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base, engine="sat")
        with pytest.raises(ValueError):
            deployer.attach_session(SolverSession())


class TestChurnCycles:
    """Rapid install -> remove -> reinstall of the *same* ingress.

    The cache controller's hot pattern: one ingress's cached policy is
    installed, evicted, and reinstalled (possibly with different rule
    subsets) many times per run.  The deployer must account spare
    capacity exactly and keep its digest an exact function of the
    deployed state, no matter how many cycles have passed.
    """

    def _fresh(self, deployed_network):
        topo, router, ports, base = deployed_network
        policy = generate_policy_set(
            [ports[10]], rules_per_policy=8, seed=11)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])
        return IncrementalDeployer(base), policy, path

    def test_capacity_accounting_is_exact_over_cycles(
            self, deployed_network):
        deployer, policy, path = self._fresh(deployed_network)
        baseline_spares = deployer.spare_capacities()
        baseline_total = deployer.total_installed()
        for _ in range(10):
            result = deployer.preview_install(policy, [path])
            assert result.is_feasible
            deployer.commit_install(policy, [path], result.placed)
            assert deployer.total_installed() == (
                baseline_total + result.installed_rules)
            freed = deployer.remove_policy(policy.ingress)
            assert freed == result.installed_rules
            # Every cycle returns to the exact baseline, switch by
            # switch -- no leaked or double-freed slots.
            assert deployer.spare_capacities() == baseline_spares
            assert deployer.total_installed() == baseline_total

    def test_digest_is_a_pure_function_of_state(self, deployed_network):
        deployer, policy, path = self._fresh(deployed_network)
        empty_digest = deployer.state_digest()
        result = deployer.preview_install(policy, [path])
        deployer.commit_install(policy, [path], result.placed)
        installed_digest = deployer.state_digest()
        assert installed_digest != empty_digest
        for _ in range(5):
            deployer.remove_policy(policy.ingress)
            assert deployer.state_digest() == empty_digest
            again = deployer.preview_install(policy, [path])
            assert again.is_feasible
            deployer.commit_install(policy, [path], again.placed)
            assert deployer.state_digest() == installed_digest

    def test_reinstall_with_shrunk_policy(self, deployed_network):
        """Eviction's shape: same ingress reinstalls a rule *subset*."""
        deployer, policy, path = self._fresh(deployed_network)
        deployer.install_policy(policy, [path])
        full_installed = deployer.total_installed()
        # Evict a DROP: drops (plus shields) are what occupy TCAM, so
        # removing one must strictly shrink the installed footprint.
        victim = policy.drop_rules()[-1]
        shrunk = Policy(
            ingress=policy.ingress,
            rules=[r for r in policy.sorted_rules() if r is not victim],
            default_action=policy.default_action,
        )
        result = deployer.preview_modify(shrunk)
        assert result.is_feasible
        deployer.apply_modify(shrunk, result.placed)
        assert deployer.total_installed() < full_installed
        assert deployer.deployed_policy(policy.ingress) is shrunk
        assert verify_placement(deployer.as_placement()).ok

    def test_preview_install_rejects_live_ingress_every_cycle(
            self, deployed_network):
        deployer, policy, path = self._fresh(deployed_network)
        for _ in range(3):
            deployer.install_policy(policy, [path])
            with pytest.raises(ValueError):
                deployer.preview_install(policy, [path])
            deployer.remove_policy(policy.ingress)

    def test_accessors_follow_the_cycle(self, deployed_network):
        deployer, policy, path = self._fresh(deployed_network)
        with pytest.raises(ValueError):
            deployer.deployed_paths(policy.ingress)
        with pytest.raises(ValueError):
            deployer.placed_of(policy.ingress)
        deployer.install_policy(policy, [path])
        assert deployer.deployed_paths(policy.ingress) == (path,)
        placed = deployer.placed_of(policy.ingress)
        assert placed
        # The accessor hands out a copy, not the live map.
        placed.clear()
        assert deployer.placed_of(policy.ingress)
        deployer.remove_policy(policy.ingress)
        with pytest.raises(ValueError):
            deployer.deployed_paths(policy.ingress)

    def test_session_epoch_survives_cycles(self, deployed_network):
        """Sessions across churn: the pinned depgraph memo keeps
        serving one content digest across every reinstall."""
        from repro.solve.session import SolverSession

        deployer, policy, path = self._fresh(deployed_network)
        session = SolverSession()
        deployer.attach_session(session)
        for _ in range(4):
            result = deployer.install_policy(policy, [path],
                                             try_greedy=False)
            assert result.is_feasible
            deployer.remove_policy(policy.ingress)
        stats = session.depgraphs.stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 3
        result = deployer.install_policy(policy, [path], try_greedy=False)
        assert result.is_feasible
        assert verify_placement(deployer.as_placement()).ok


# ---------------------------------------------------------------------------
# The indexed greedy and the per-ingress digest bytes against references
# ---------------------------------------------------------------------------


def _reference_greedy_place(deployer, policy, paths, graph=None):
    """``IncrementalDeployer._greedy_place`` before its per-switch
    index: ``rules_at`` rescans the map being built, and the rules are
    re-sorted for every path.  The reference the indexed greedy must
    match exactly, refusals (``None``) included."""
    if graph is None:
        graph = build_dependency_graph(policy)
    ingress = policy.ingress
    spare = deployer.spare_capacities()
    placed = {}

    def rules_at(switch):
        return {key for key, switches in placed.items() if switch in switches}

    for path in paths:
        for rule in policy.sorted_rules():
            if not rule.is_drop:
                continue
            if path.flow is not None and not rule.match.intersects(path.flow):
                continue
            drop_key = (ingress, rule.priority)
            if any(
                switch in path.switches
                for switch in placed.get(drop_key, ())
            ):
                continue
            closure = [
                (ingress, priority) for priority in graph.closure(rule.priority)
            ]
            chosen = None
            for switch in path.switches:
                here = rules_at(switch)
                new_rules = [key for key in closure if key not in here]
                if len(new_rules) <= spare[switch]:
                    chosen = switch
                    break
            if chosen is None:
                return None
            here = rules_at(chosen)
            for key in closure:
                if key not in here:
                    spare[chosen] -= 1
                placed.setdefault(key, set()).add(chosen)
    return {key: frozenset(switches) for key, switches in placed.items()}


def _reference_state_digest(deployer):
    """``state_digest`` as one flat part stream through
    :func:`canonical_digest`, re-framing every ingress every call."""
    parts = []
    for ingress in sorted(deployer._state):
        policy, paths, placed = deployer._state[ingress]
        parts.append(f"policy:{ingress}:{policy.content_digest()}")
        for path in paths:
            flow = "-" if path.flow is None else path.flow.to_string()
            parts.append(
                f"path:{path.ingress}:{path.egress}:"
                f"{','.join(path.switches)}:{flow}"
            )
        for key in sorted(placed):
            parts.append(
                f"placed:{key[0]}:{key[1]}:"
                f"{','.join(sorted(placed[key]))}"
            )
    return canonical_digest(parts)


class _DeltaStream:
    """A seeded stream of installs, reroutes, modifies and removes on a
    k=4 fat-tree whose switches hold 1 to 6 rules, so greedy often
    refuses.  Each ingress routes on 1-3 paths from one edge switch,
    which therefore share switches; some paths carry flows."""

    INGRESSES = 6

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        topo = fattree(4, capacity=self.rng.choice((1, 2, 3, 6)))
        self.ports = [p.name for p in topo.entry_ports]
        self.router = ShortestPathRouter(topo, seed=seed)
        empty = PlacementInstance(topo, Routing(), PolicySet())
        self.deployer = IncrementalDeployer(
            Placement(instance=empty, status=SolveStatus.FEASIBLE))

    def policy(self, ingress: str) -> Policy:
        config = PolicyGeneratorConfig(num_rules=self.rng.randint(4, 16))
        return PolicyGenerator(config, seed=self.rng.getrandbits(31)) \
            .generate_policy(ingress)

    def paths(self, policy: Policy):
        others = [p for p in self.ports if p != policy.ingress]
        paths = []
        for egress in self.rng.sample(others, self.rng.randint(1, 3)):
            path = self.router.shortest_path(policy.ingress, egress)
            if self.rng.random() < 0.4:
                path = path.with_flow(self.rng.choice(policy.rules).match)
            paths.append(path)
        return paths

    def step(self) -> None:
        """Apply one random operation."""
        deployer = self.deployer
        ingress = self.rng.choice(self.ports[:self.INGRESSES])
        if not deployer.has_policy(ingress):
            policy = self.policy(ingress)
            deployer.install_policy(policy, self.paths(policy))
            return
        op = self.rng.choice(("reroute", "modify", "remove",
                              "preview-reroute", "preview-modify"))
        deployed = deployer.deployed_policy(ingress)
        if op.endswith("reroute"):
            paths = self.paths(deployed)
            if op == "reroute":
                deployer.reroute_policy(ingress, paths)
            else:
                deployer.preview_reroute(ingress, paths)
        elif op.endswith("modify"):
            policy = self.policy(ingress)
            if op == "modify":
                deployer.modify_policy(policy)
            else:
                deployer.preview_modify(policy)
        else:
            deployer.remove_policy(ingress)


def _refuse_sub_ilp(policy, paths, time_limit, depgraphs=None):
    return IncrementalResult(SolveStatus.INFEASIBLE, "ilp", 0.0)


def _checked_greedy_stream(seed: int):
    """Run a seeded stream, checking every greedy call against
    :func:`_reference_greedy_place`; returns each call's answer and
    paths.  The sub-ILP is stubbed to refuse, so a greedy refusal costs
    nothing and is simply not committed."""
    stream = _DeltaStream(seed)
    deployer = stream.deployer
    indexed = deployer._greedy_place
    calls = []

    def checked(policy, paths, graph=None):
        got = indexed(policy, paths, graph)
        assert got == _reference_greedy_place(deployer, policy, paths,
                                              graph), (seed, len(calls))
        calls.append((got, paths))
        return got

    deployer._greedy_place = checked
    deployer._sub_ilp = _refuse_sub_ilp
    for _ in range(30):
        stream.step()
    return calls


class TestIndexedGreedy:
    """The per-switch index changes no greedy answer.

    The session differential cannot see a greedy change: both of its
    sides run the same greedy.  So every greedy call of a seeded stream
    is checked against the pre-index implementation kept above.
    """

    @pytest.mark.parametrize("seed", range(24))
    def test_same_answer_as_reference_at_every_call(self, seed):
        assert _checked_greedy_stream(seed)

    def test_streams_reach_shared_switches_flows_and_refusals(self):
        """The streams reach what the index must get right: closures
        sharing a switch, flowed paths, and refusals."""
        calls = [call for seed in range(24)
                 for call in _checked_greedy_stream(seed)]
        refusals = sum(placed is None for placed, _paths in calls)
        flowed = sum(any(path.flow is not None for path in paths)
                     for _placed, paths in calls)
        shared = 0
        for placed, _paths in calls:
            switches = [switch for where in (placed or {}).values()
                        for switch in where]
            shared += len(switches) > len(set(switches))
        assert len(calls) >= 500
        assert refusals >= 100
        assert flowed >= 200
        assert shared >= 150


class TestStateDigestBytes:
    """``state_digest`` hashes kept per-ingress bytes; its value must
    stay the flat part stream's canonical digest after every write."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_flat_stream_after_every_step(self, seed):
        stream = _DeltaStream(seed)
        deployer = stream.deployer
        assert deployer.state_digest() == _reference_state_digest(deployer)
        for _ in range(25):
            stream.step()
            assert deployer.state_digest() == \
                _reference_state_digest(deployer)
            deployed = [p for p in stream.ports[:stream.INGRESSES]
                        if deployer.has_policy(p)]
            if deployed and stream.rng.random() < 0.3:
                # An in-place edit of a deployed policy writes no state
                # the deployer sees, yet must change the digest.
                policy = deployer.deployed_policy(stream.rng.choice(deployed))
                before = deployer.state_digest()
                extra = Rule(policy.rules[0].match, Action.DROP,
                             policy.next_priority_above())
                policy.add_rule(extra)
                assert deployer.state_digest() != before
                assert deployer.state_digest() == \
                    _reference_state_digest(deployer)
                policy.remove_rule(extra)
                assert deployer.state_digest() == before

    def test_previews_and_reinstalls(self, deployed_network):
        """Greedy and infeasible previews (release, then restore),
        commits, removes and re-installs of one ingress."""
        topo, router, ports, base = deployed_network
        deployer = IncrementalDeployer(base)
        ingress = next(iter(base.instance.policies)).ingress
        newcomer = generate_policy_set(
            [ports[10]], rules_per_policy=8, seed=11)[ports[10]]
        path = router.shortest_path(ports[10], ports[0])

        def check():
            assert deployer.state_digest() == \
                _reference_state_digest(deployer)

        check()
        assert deployer.preview_reroute(
            ingress, [router.shortest_path(ingress, ports[0])]).is_feasible
        check()
        installed = deployer.install_policy(newcomer, [path])
        assert installed.is_feasible
        check()
        # No spare slot anywhere: a larger policy fits nowhere.
        for switch in deployer.spare_capacities():
            deployer.base_capacities[switch] -= deployer.spare_capacity(switch)
        refused = deployer.preview_modify(generate_policy_set(
            [ingress], rules_per_policy=40, seed=3)[ingress])
        assert not refused.is_feasible
        check()
        for _ in range(3):
            deployer.remove_policy(newcomer.ingress)
            check()
            deployer.commit_install(newcomer, [path], installed.placed)
            check()


def _golden_deployment() -> IncrementalDeployer:
    """Two policies on three switches, written out by hand: the digest
    depends on nothing but these literals."""
    topo = Topology()
    for name in ("s1", "s2", "s3"):
        topo.add_switch(name, 4)
    topo.add_link("s1", "s2")
    topo.add_link("s2", "s3")
    topo.add_entry_port("in1", "s1")
    topo.add_entry_port("in2", "s3")
    topo.add_entry_port("out", "s2")
    first = Policy("in1", [
        rule("1*0", Action.PERMIT, 3),
        rule("1**", Action.DROP, 2),
        rule("0*1", Action.DROP, 1),
    ])
    second = Policy("in2", [
        rule("01*", Action.DROP, 2),
        rule("0**", Action.PERMIT, 1),
    ], default_action=Action.DROP)
    routing = Routing([
        Path("in1", "out", ("s1", "s2")),
        Path("in1", "in2", ("s1", "s2", "s3"),
             TernaryMatch.from_string("1*1")),
        Path("in2", "out", ("s3", "s2")),
    ])
    instance = PlacementInstance(topo, routing, PolicySet([first, second]))
    return IncrementalDeployer(Placement(
        instance=instance, status=SolveStatus.FEASIBLE, placed={
            ("in1", 3): frozenset({"s1"}),
            ("in1", 2): frozenset({"s1"}),
            ("in1", 1): frozenset({"s1", "s2"}),
            ("in2", 2): frozenset({"s3"}),
        }))


class TestGoldenDigest:
    """The digest's format is pinned.  Journals, snapshots and the
    dedup table store digests; a change to the hashed bytes would make
    every stored one stale.  ``GOLDEN`` was computed before the digest
    kept per-ingress bytes, from the flat part stream."""

    GOLDEN = ("e675514cb71ebe1b1e69443a41c8c4dd"
              "18dd681045181472f7f116300facc759")

    def test_hand_written_deployment(self):
        deployer = _golden_deployment()
        assert deployer.state_digest() == self.GOLDEN
        assert _reference_state_digest(deployer) == self.GOLDEN
