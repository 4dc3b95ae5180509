"""Cross-engine fuzzing over randomized topologies and workloads.

One seeded campaign exercises the whole stack end to end: a random
topology family (fat-tree / leaf-spine / ring / random graph), random
routing with optional flow slicing, ClassBench-style policies with
optional shared blacklists -- then every engine and baseline runs on the
same instance and all pairwise consistency obligations are checked:

* ILP (HiGHS), ILP (own B&B on small instances), and SAT agree on
  feasibility;
* every feasible answer passes exact verification;
* objective ordering holds: merged ILP <= plain ILP <= greedy;
* table synthesis + sampled packet replay agree with the policies.

This is the repository's "everything is consistent with everything"
safety net; each seed is an independent scenario.

A second campaign (``TestPortfolioDifferential``) uses the portfolio
solver as a differential oracle: on randomized *small* instances every
individual backend's proven optimum must equal the portfolio's answer,
in both inline and process execution.  Seeds are fixed and printed in
every assertion message, so a failure is reproducible with::

    python -c "from tests.integration.test_cross_engine_fuzz import \
               build_small_scenario; print(build_small_scenario(SEED).summary())"

Environment knobs (used by CI's quick profile):

* ``REPRO_FUZZ_QUICK=1`` -- trim both campaigns to a fast subset;
* ``REPRO_FUZZ_SEEDS=N`` -- explicit differential seed count.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.baselines import place_greedy
from repro.core.instance import PlacementInstance
from repro.core.placement import PlacerConfig, RulePlacer
from repro.core.satenc import SatPlacer
from repro.core.satopt import SatOptimizer
from repro.core.verify import verify_placement
from repro.experiments.generators import attach_flow_descriptors
from repro.milp.bnb import BranchAndBoundBackend
from repro.milp.model import SolveStatus
from repro.net.fattree import fattree
from repro.net.generators import leaf_spine, random_graph, ring
from repro.net.routing import ShortestPathRouter
from repro.policy.classbench import PolicyGeneratorConfig, generate_policy_set

_QUICK = os.environ.get("REPRO_FUZZ_QUICK") == "1"
_CAMPAIGN_SEEDS = range(8) if _QUICK else range(24)
_DIFF_SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS",
                                       "6" if _QUICK else "14")))


def build_random_scenario(seed: int) -> PlacementInstance:
    rng = random.Random(seed)
    kind = rng.choice(["fattree", "leaf_spine", "ring", "random"])
    capacity = rng.choice([6, 10, 18, 40])
    if kind == "fattree":
        topo = fattree(4, capacity=capacity)
    elif kind == "leaf_spine":
        topo = leaf_spine(rng.randint(3, 5), rng.randint(2, 3),
                          capacity=capacity)
    elif kind == "ring":
        topo = ring(rng.randint(4, 7), capacity=capacity)
    else:
        topo = random_graph(rng.randint(6, 10), degree=3,
                            capacity=capacity, seed=seed)
    ports = [p.name for p in topo.entry_ports]
    num_ingresses = rng.randint(2, min(5, len(ports) - 1))
    ingresses = rng.sample(ports, num_ingresses)
    router = ShortestPathRouter(topo, seed=seed)
    routing = router.random_routing(
        rng.randint(num_ingresses, 3 * num_ingresses), ingresses=ingresses
    )
    if rng.random() < 0.4:
        routing = attach_flow_descriptors(routing, seed=seed)
    config = PolicyGeneratorConfig(
        num_rules=rng.randint(4, 12),
        drop_fraction=rng.uniform(0.3, 0.7),
        nested_fraction=rng.uniform(0.2, 0.7),
    )
    policies = generate_policy_set(
        ingresses, rules_per_policy=config.num_rules, seed=seed,
        config=config,
        blacklist_rules=rng.choice([0, 0, 2]),
    )
    return PlacementInstance(topo, routing, policies)


@pytest.mark.parametrize("seed", _CAMPAIGN_SEEDS)
def test_cross_engine_consistency(seed):
    instance = build_random_scenario(seed)

    ilp = RulePlacer().place(instance)
    merged = RulePlacer(PlacerConfig(enable_merging=True)).place(instance)
    sat = SatPlacer().place(instance)
    greedy = place_greedy(instance)

    # Feasibility agreement between exact engines.
    assert ilp.status.has_solution == sat.status.has_solution, instance.summary()
    # Merging can only help.
    assert merged.status.has_solution >= ilp.status.has_solution

    if not ilp.is_feasible:
        # Greedy may not find what doesn't exist.
        assert not greedy.is_feasible
        return

    # Every feasible result verifies exactly.
    for label, placement in (("ilp", ilp), ("merged", merged), ("sat", sat)):
        report = verify_placement(placement)
        assert report.ok, (seed, label, report.errors[:2])

    # Objective ordering.
    assert merged.total_installed() <= ilp.total_installed()
    assert sat.total_installed() >= ilp.total_installed()
    if greedy.is_feasible:
        assert verify_placement(greedy).ok
        assert greedy.total_installed() >= ilp.total_installed()

    # Own B&B agrees with HiGHS on small encodings.
    if ilp.num_variables <= 300:
        bnb = RulePlacer(
            PlacerConfig(backend=BranchAndBoundBackend(time_limit=60))
        ).place(instance)
        assert bnb.is_feasible
        assert bnb.objective_value == pytest.approx(ilp.objective_value)

    # Synthesized tables replay correctly.
    from repro.core.tags import synthesize

    dataplane = synthesize(ilp)
    mismatches = dataplane.check_routing_sampled(
        list(instance.policies), instance.routing, seed=seed,
        samples_per_rule=4,
    )
    assert mismatches == [], (seed, str(mismatches[0]))


# ---------------------------------------------------------------------------
# Portfolio as differential oracle
# ---------------------------------------------------------------------------


def build_small_scenario(seed: int) -> PlacementInstance:
    """Like :func:`build_random_scenario` but sized so *every* exact
    backend (including pure-Python B&B and the SAT optimizer) proves
    its optimum in well under a second."""
    rng = random.Random(10_000 + seed)
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
        ingresses, rules_per_policy=config.num_rules, seed=seed, config=config,
    )
    return PlacementInstance(topo, routing, policies)


class TestPortfolioDifferential:
    """Every individual backend vs the portfolio, seed by seed."""

    @pytest.mark.parametrize("seed", _DIFF_SEEDS)
    def test_portfolio_matches_every_backend(self, seed):
        instance = build_small_scenario(seed)
        ctx = f"seed={seed} instance={instance.summary()!r}"

        highs = RulePlacer().place(instance)
        bnb = RulePlacer(
            PlacerConfig(backend=BranchAndBoundBackend(time_limit=120))
        ).place(instance)
        sat = SatOptimizer().minimize(instance).placement

        # Each backend individually reaches a conclusive answer.
        for label, single in (("highs", highs), ("bnb", bnb), ("satopt", sat)):
            assert single.status in (
                SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE
            ), f"{ctx}: {label} was not conclusive: {single.status}"

        # All agree on feasibility.
        assert highs.is_feasible == bnb.is_feasible == sat.is_feasible, (
            f"{ctx}: feasibility disagreement "
            f"(highs={highs.status}, bnb={bnb.status}, sat={sat.status})"
        )

        # Race the same instance: inline (deterministic order) and
        # process (true concurrency) must both reproduce the optimum.
        executors = ("inline", "process") if seed % 2 == 0 else ("inline",)
        for executor in executors:
            portfolio = RulePlacer(PlacerConfig(
                backend="portfolio", deadline=120.0, executor=executor,
            )).place(instance)
            assert portfolio.status is highs.status, (
                f"{ctx}: portfolio[{executor}] status {portfolio.status} "
                f"!= single-backend {highs.status} "
                f"(winner={portfolio.winner})"
            )
            if not highs.is_feasible:
                continue
            for label, single in (("highs", highs), ("bnb", bnb), ("satopt", sat)):
                assert portfolio.objective_value == pytest.approx(
                    single.objective_value
                ), (
                    f"{ctx}: portfolio[{executor}] objective "
                    f"{portfolio.objective_value} != {label} optimum "
                    f"{single.objective_value} (winner={portfolio.winner})"
                )
            assert portfolio.total_installed() == highs.total_installed(), ctx
            report = verify_placement(portfolio)
            assert report.ok, f"{ctx}: {report.errors[:2]}"

    @pytest.mark.parametrize("seed", [s for s in _DIFF_SEEDS][:3])
    def test_portfolio_survives_hostile_engine(self, seed):
        """A crash-injected engine must never change the answer."""
        from repro.solve.portfolio import EngineSpec

        def hostile(task):
            raise RuntimeError(f"hostile engine, seed {seed}")

        instance = build_small_scenario(seed)
        reference = RulePlacer().place(instance)
        placement = RulePlacer(PlacerConfig(
            backend="portfolio", deadline=120.0, executor="inline",
            engines=(EngineSpec("hostile", hostile), "highs", "bnb", "satopt"),
        )).place(instance)
        assert placement.status is reference.status, f"seed={seed}"
        assert placement.objective_value == reference.objective_value, (
            f"seed={seed}: {placement.objective_value} "
            f"!= {reference.objective_value}"
        )
        telemetry = placement.solver_stats["portfolio"]
        assert telemetry["engines"]["hostile"]["outcome"] == "crashed", (
            f"seed={seed}"
        )
