"""Differential tests for the vectorized dependency-analysis fast path.

The packed-array overlap kernel and the memoized depgraph build must
both be *indistinguishable* from the original quadratic pure-Python
constructions -- same pairs, same edges, in the same order.  The
reference implementation (:func:`build_dependency_graph_reference`) is
kept in-tree precisely to serve as the oracle here.
"""

from __future__ import annotations

import random

import pytest

from repro.core.depgraph import (
    build_dependency_graph,
    build_dependency_graph_reference,
    clear_depgraph_cache,
    depgraph_cache_stats,
    ordering_pairs,
    policy_overlap_pairs,
)
from repro.policy.classbench import generate_policy_set
from repro.policy.policy import Policy
from repro.policy.rule import Action, Rule
from repro.policy.ternary import TernaryMatch, overlapping_pairs

# Sizes straddling the small-batch cutoff below which the kernel uses
# the pure-Python scan, plus a size large enough to span many blocks.
_SIZES = [0, 1, 2, 5, 63, 64, 65, 200]
_WIDTHS = [4, 16, 64, 104]


def random_match(rng: random.Random, width: int,
                 wildcard_bias: float = 0.5) -> TernaryMatch:
    chars = []
    for _ in range(width):
        if rng.random() < wildcard_bias:
            chars.append("*")
        else:
            chars.append(rng.choice("01"))
    return TernaryMatch.from_string("".join(chars))


def random_policy(rng: random.Random, n: int, width: int) -> Policy:
    rules = [
        Rule(random_match(rng, width),
             Action.DROP if rng.random() < 0.4 else Action.PERMIT,
             priority=n - idx)
        for idx in range(n)
    ]
    return Policy("in", rules)


def brute_force_pairs(matches):
    return [
        (i, j)
        for i in range(len(matches))
        for j in range(i + 1, len(matches))
        if matches[i].intersects(matches[j])
    ]


class TestOverlapKernel:
    @pytest.mark.parametrize("width", _WIDTHS)
    @pytest.mark.parametrize("n", _SIZES)
    def test_matches_brute_force(self, n, width):
        rng = random.Random(n * 1000 + width)
        matches = [random_match(rng, width) for _ in range(n)]
        first, second = overlapping_pairs(matches)
        assert list(zip(first.tolist(), second.tolist())) == \
            brute_force_pairs(matches)

    def test_all_wildcards_every_pair_overlaps(self):
        matches = [TernaryMatch.from_string("*" * 8) for _ in range(70)]
        first, second = overlapping_pairs(matches)
        assert len(first) == 70 * 69 // 2

    def test_fully_specified_disjoint_values(self):
        # 70 distinct exact-match cubes: no pair intersects, and every
        # cube lands in a bucket rather than the mixed row set.
        matches = [
            TernaryMatch.from_string(format(i, "08b")) for i in range(70)
        ]
        first, second = overlapping_pairs(matches)
        assert len(first) == 0

    def test_duplicates_overlap(self):
        matches = [TernaryMatch.from_string("10*1")] * 66
        first, second = overlapping_pairs(matches)
        assert len(first) == 66 * 65 // 2

    def test_prefix_structured(self):
        # Prefix-style rules (ClassBench-like): care bits form prefixes,
        # so bucketing sees many shared short patterns.
        rng = random.Random(7)
        matches = []
        for _ in range(120):
            plen = rng.randrange(0, 33)
            value = rng.getrandbits(32)
            matches.append(TernaryMatch.from_prefix(32, value, plen))
        first, second = overlapping_pairs(matches)
        assert list(zip(first.tolist(), second.tolist())) == \
            brute_force_pairs(matches)


class TestDepgraphDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_policies_match_reference(self, seed):
        rng = random.Random(seed)
        policy = random_policy(rng, rng.choice([10, 80, 150]),
                               rng.choice(_WIDTHS[1:]))
        fast = build_dependency_graph(policy, use_cache=False)
        ref = build_dependency_graph_reference(policy)
        assert fast.ingress == ref.ingress
        assert fast.edges == ref.edges
        assert list(fast.edges) == list(ref.edges)  # same key order too

    def test_classbench_policies_match_reference(self):
        policies = generate_policy_set(["a", "b", "c"], 90, seed=3)
        for policy in policies:
            fast = build_dependency_graph(policy, use_cache=False)
            ref = build_dependency_graph_reference(policy)
            assert fast.edges == ref.edges

    def test_ordering_pairs_unchanged(self):
        policies = generate_policy_set(["a"], 80, seed=11)
        for policy in policies:
            ordered = policy.sorted_rules()
            expected = []
            for idx, lower in enumerate(ordered):
                for higher in ordered[:idx]:
                    if (higher.action is not lower.action
                            and higher.match.intersects(lower.match)):
                        expected.append((higher.priority, lower.priority))
            assert sorted(ordering_pairs(policy)) == sorted(expected)

    def test_policy_overlap_pairs_are_hi_lo_indices(self):
        policies = generate_policy_set(["a"], 70, seed=5)
        policy = next(iter(policies))
        ordered = policy.sorted_rules()
        for hi, lo in policy_overlap_pairs(ordered):
            assert hi < lo
            assert ordered[hi].priority > ordered[lo].priority
            assert ordered[hi].match.intersects(ordered[lo].match)


class TestMemoization:
    def setup_method(self):
        clear_depgraph_cache()

    def teardown_method(self):
        clear_depgraph_cache()

    def test_repeat_build_hits_cache(self):
        policies = generate_policy_set(["a"], 50, seed=1)
        policy = next(iter(policies))
        build_dependency_graph(policy)
        before = depgraph_cache_stats()
        graph = build_dependency_graph(policy)
        after = depgraph_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert graph.edges == build_dependency_graph_reference(policy).edges

    def test_cache_keyed_by_content_not_identity(self):
        policies = generate_policy_set(["a"], 40, seed=2)
        policy = next(iter(policies))
        clone = Policy(policy.ingress, list(policy.rules),
                       policy.default_action)
        build_dependency_graph(policy)
        before = depgraph_cache_stats()
        build_dependency_graph(clone)
        assert depgraph_cache_stats()["hits"] == before["hits"] + 1

    def test_ingress_name_not_part_of_key_but_preserved(self):
        policies = generate_policy_set(["a"], 30, seed=3)
        policy = next(iter(policies))
        renamed = Policy("other", list(policy.rules), policy.default_action)
        build_dependency_graph(policy)
        graph = build_dependency_graph(renamed)
        assert graph.ingress == "other"
        assert depgraph_cache_stats()["hits"] == 1

    def test_content_change_misses(self):
        policies = generate_policy_set(["a"], 30, seed=4)
        policy = next(iter(policies))
        build_dependency_graph(policy)
        grown = Policy(policy.ingress, list(policy.rules) + [
            Rule(TernaryMatch.from_string("*" * policy.rules[0].match.width),
                 Action.DROP, priority=policy.next_priority_above()),
        ], policy.default_action)
        graph = build_dependency_graph(grown)
        assert depgraph_cache_stats()["misses"] == 2
        assert graph.edges == build_dependency_graph_reference(grown).edges

    def test_cached_copy_is_isolated(self):
        policies = generate_policy_set(["a"], 30, seed=5)
        policy = next(iter(policies))
        graph = build_dependency_graph(policy)
        graph.edges.clear()  # caller mutates its copy
        again = build_dependency_graph(policy)
        assert again.edges == build_dependency_graph_reference(policy).edges
