"""The rule dependency graph (paper Section IV-A1).

Rather than covering multi-dimensional packet spaces, the paper's key
analysis is a per-policy *dependency graph*: for every DROP rule ``w``,
an edge to each PERMIT rule ``u`` of the same policy with

* higher priority (``t_u > t_w``), and
* an overlapping (non-disjoint) matching field.

Placing ``w`` on a switch then *requires* co-locating every such ``u``
(Eq. 1), because those PERMITs carve exceptions out of ``w``'s drop
region.  DROP/DROP overlaps and disjoint rules impose nothing.

The same pairwise analysis, generalized to "overlapping rules with
different actions", also yields the *ordering* constraints a merged
per-switch table must respect; :mod:`repro.core.merging` and
:mod:`repro.core.tags` reuse it through :meth:`ordering_pairs`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..policy.policy import Policy
from ..policy.rule import Rule
from ..policy.ternary import overlapping_pairs

__all__ = [
    "DependencyGraph",
    "PinnedDepgraphs",
    "build_dependency_graph",
    "build_dependency_graph_reference",
    "caching_closures",
    "clear_depgraph_cache",
    "depgraph_cache_stats",
    "ordering_pairs",
    "policy_overlap_pairs",
]


@dataclass
class DependencyGraph:
    """Dependencies of one policy's DROP rules on its PERMIT rules.

    ``edges`` maps each DROP rule's priority to the (sorted) priorities
    of the PERMIT rules it depends on.  Rules are referenced by priority
    since priorities are unique within a policy.
    """

    ingress: str
    edges: Dict[int, Tuple[int, ...]]

    def dependencies_of(self, drop_priority: int) -> Tuple[int, ...]:
        """Priorities of PERMIT rules that must co-locate with the DROP."""
        return self.edges.get(drop_priority, ())

    def num_edges(self) -> int:
        return sum(len(deps) for deps in self.edges.values())

    def drop_priorities(self) -> Tuple[int, ...]:
        return tuple(self.edges)

    def required_permits(self) -> Tuple[int, ...]:
        """Every PERMIT priority referenced by at least one DROP.

        PERMIT rules outside this set never need placement at all: with
        a PERMIT default, a permit that shields no drop is a no-op on
        the dataplane.
        """
        seen: Dict[int, None] = {}
        for deps in self.edges.values():
            for priority in deps:
                seen.setdefault(priority)
        return tuple(seen)

    def closure(self, drop_priority: int) -> Tuple[int, ...]:
        """The full co-location set for one DROP: itself + dependencies."""
        return (drop_priority,) + self.dependencies_of(drop_priority)


def policy_overlap_pairs(ordered: Sequence[Rule]) -> List[Tuple[int, int]]:
    """Index pairs ``(hi, lo)``, ``hi < lo``, of overlapping rules in a
    decreasing-priority rule list (``hi`` is the higher-priority rule).

    The one pairwise-overlap computation every structural analysis
    shares: the dependency graph (Eq. 1), the merged-table ordering DAG,
    and the policy analytics all classify these same pairs instead of
    re-deriving them with their own quadratic scans.
    """
    first, second = overlapping_pairs([rule.match for rule in ordered])
    return list(zip(first.tolist(), second.tolist()))


def _compute_edges(policy: Policy) -> Dict[int, Tuple[int, ...]]:
    """The dependency edges of one policy, via the vectorized kernel.

    Pair classification stays in numpy: of all overlapping (hi, lo)
    index pairs only PERMIT-over-DROP ones become edges, and the filter
    runs as boolean masks so Python-level work is proportional to the
    number of *edges*, not the (much larger) number of overlaps.
    """
    ordered = policy.sorted_rules()  # decreasing priority
    deps: Dict[int, List[int]] = {
        rule.priority: [] for rule in ordered if rule.is_drop
    }
    if not ordered:
        return {}
    first, second = overlapping_pairs([rule.match for rule in ordered])
    n = len(ordered)
    is_drop = np.fromiter((rule.is_drop for rule in ordered), np.bool_, n)
    priorities = np.fromiter((rule.priority for rule in ordered), np.int64, n)
    keep = is_drop[second] & ~is_drop[first]
    for lo, hi in zip(priorities[second[keep]].tolist(),
                      priorities[first[keep]].tolist()):
        deps[lo].append(hi)
    return {priority: tuple(sorted(v)) for priority, v in deps.items()}


# ---------------------------------------------------------------------------
# Content-keyed memoization
# ---------------------------------------------------------------------------
#
# Depgraphs are recomputed far more often than policies change: every
# portfolio fork, reconciler redeploy, and incremental re-solve calls
# ``build_encoding`` afresh.  The edges depend only on the policy's rule
# content, so an LRU keyed by ``Policy.content_digest()`` makes repeat
# encodes O(n) (the digest) instead of O(pairs).  Keying by content --
# not object identity -- keeps the cache correct under policy mutation.

_CACHE: "OrderedDict[str, Dict[int, Tuple[int, ...]]]" = OrderedDict()
_CACHE_MAX = 256
_CACHE_STATS = {"hits": 0, "misses": 0}


def clear_depgraph_cache() -> None:
    """Drop every memoized depgraph (tests and benchmarks)."""
    _CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def depgraph_cache_stats() -> Dict[str, int]:
    """A copy of the cache hit/miss counters."""
    return dict(_CACHE_STATS)


def build_dependency_graph(policy: Policy, use_cache: bool = True) -> DependencyGraph:
    """Construct the dependency graph of one ingress policy.

    Pairwise over the policy's rules, but vectorized: the overlap tests
    run through :func:`repro.policy.ternary.overlapping_pairs` (packed
    integer arrays with bucketed candidate pruning) rather than one
    Python-level ``intersects`` call per pair, and results are memoized
    by policy content digest across repeated encodes.
    """
    if use_cache:
        digest = policy.content_digest()
        cached = _CACHE.get(digest)
        if cached is not None:
            _CACHE.move_to_end(digest)
            _CACHE_STATS["hits"] += 1
            return DependencyGraph(policy.ingress, dict(cached))
        _CACHE_STATS["misses"] += 1
    edges = _compute_edges(policy)
    if use_cache:
        _CACHE[digest] = edges
        while len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return DependencyGraph(policy.ingress, dict(edges))


class PinnedDepgraphs:
    """A session-scoped depgraph memo pinned to one live deployment.

    This memo is all a :class:`~repro.solve.session.SolverSession`
    holds.  Unlike the module-level LRU (which any solve on the process
    can evict), the session owns it outright: as long as a deployment's
    policy content is unchanged, every delta preview, greedy or sub-ILP,
    gets its dependency graph back in O(digest) with zero recompute --
    the property ``TestSessionDepgraphReuse`` pins down.  Entries are
    keyed by ``Policy.content_digest()``, so a modified policy misses
    and is recomputed exactly once.
    """

    def __init__(self, max_entries: int = 512) -> None:
        self._entries: "OrderedDict[str, Dict[int, Tuple[int, ...]]]" = (
            OrderedDict()
        )
        self._max = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, policy: Policy) -> DependencyGraph:
        digest = policy.content_digest()
        edges = self._entries.get(digest)
        if edges is not None:
            self._entries.move_to_end(digest)
            self.hits += 1
        else:
            self.misses += 1
            edges = _compute_edges(policy)
            self._entries[digest] = edges
            while len(self._entries) > self._max:
                self._entries.popitem(last=False)
        return DependencyGraph(policy.ingress, dict(edges))

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}


def build_dependency_graph_reference(policy: Policy) -> DependencyGraph:
    """The original quadratic pure-Python construction.

    Kept verbatim as the differential oracle for the vectorized kernel
    (``tests/core/test_depgraph_fast.py``) and as the pre-PR baseline
    the compile-fastpath benchmark measures against.
    """
    ordered = policy.sorted_rules()  # decreasing priority
    edges: Dict[int, Tuple[int, ...]] = {}
    for idx, rule in enumerate(ordered):
        if not rule.is_drop:
            continue
        deps: List[int] = []
        for higher in ordered[:idx]:
            if higher.is_permit and higher.match.intersects(rule.match):
                deps.append(higher.priority)
        edges[rule.priority] = tuple(sorted(deps))
    return DependencyGraph(policy.ingress, edges)


def caching_closures(policy: Policy) -> Dict[int, Tuple[int, ...]]:
    """Transitive different-action ancestor closure of every rule.

    The *caching* dependency rule is stricter than Eq. 1: a rule ``r``
    answered from a partial (cached) table is only semantically safe
    when every higher-priority rule with a different action whose match
    overlaps ``r`` is cached too -- and so on transitively up the
    alternating PERMIT/DROP chain.  (Eq. 1 stops at a DROP's direct
    PERMIT shields because a full placement installs every drop anyway;
    a cache does not, so a shield PERMIT must drag along the even
    higher DROPs that carve into *it*.)

    Returns, per rule priority, the sorted (descending) tuple of
    ancestor priorities that must co-reside in the cache.  The rule
    itself is not included.  The relation is built from
    :func:`ordering_pairs` -- the same significant-pair analysis the
    merged-table synthesis orders by -- so "different action and
    overlapping" has exactly one definition in the codebase.
    """
    direct: Dict[int, List[int]] = {}
    for higher, lower in ordering_pairs(policy):
        direct.setdefault(lower, []).append(higher)
    closures: Dict[int, Tuple[int, ...]] = {}
    # Decreasing priority: every ancestor is strictly higher-priority,
    # so its own closure is already final when we reach the dependent.
    for rule in policy.sorted_rules():
        members: set = set()
        for ancestor in direct.get(rule.priority, ()):
            members.add(ancestor)
            members.update(closures[ancestor])
        closures[rule.priority] = tuple(sorted(members, reverse=True))
    return closures


def ordering_pairs(policy: Policy) -> Iterator[Tuple[int, int]]:
    """Yield ``(higher_priority, lower_priority)`` pairs whose relative
    order is semantically significant in a synthesized table.

    Order matters exactly for overlapping rules with *different*
    actions: swapping two overlapping PERMIT/DROP rules changes which
    wins on the overlap, while same-action or disjoint pairs commute.
    Used by merged-table synthesis to build the precedence DAG.
    """
    ordered = policy.sorted_rules()
    for hi, lo in policy_overlap_pairs(ordered):
        higher, lower = ordered[hi], ordered[lo]
        if higher.action is not lower.action:
            yield (higher.priority, lower.priority)
