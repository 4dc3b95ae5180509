"""Prioritized firewall policies (the paper's ``Q_i``).

A policy is a strictly prioritized list of :class:`~repro.policy.rule.Rule`
objects attached to one network ingress.  A packet is evaluated against
the rules in decreasing priority order; the first rule whose matching
field contains the header decides PERMIT or DROP.  Headers matching no
rule fall through to the policy's ``default_action`` (PERMIT by default,
mirroring the paper's treatment where only DROP rules must be placed and
unmatched traffic is forwarded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..digest import canonical_digest
from .rule import Action, Rule
from .ternary import RegionSet, TernaryMatch

if TYPE_CHECKING:
    from ..net.routing import Path

__all__ = ["Policy", "PolicySet"]


@dataclass
class Policy:
    """A prioritized rule list for one ingress port.

    Parameters
    ----------
    ingress:
        Identifier of the network entry port (``l_i`` in the paper) the
        policy is attached to.
    rules:
        The rules; priorities must be pairwise distinct.
    default_action:
        Decision for headers matching no rule.
    """

    ingress: str
    rules: List[Rule] = field(default_factory=list)
    default_action: Action = Action.PERMIT

    def __post_init__(self) -> None:
        self._validate_priorities()
        for rule in self.rules:
            self.check_width(rule.match, f"rule t={rule.priority}")
        #: Memoized :meth:`content_digest`; rules are frozen, so the
        #: digest only changes through :meth:`add_rule` /
        #: :meth:`remove_rule`, which reset this to ``None``.
        self._digest: Optional[str] = None

    def _validate_priorities(self) -> None:
        seen: Dict[int, Rule] = {}
        for rule in self.rules:
            if rule.priority in seen:
                raise ValueError(
                    f"duplicate priority {rule.priority} in policy {self.ingress!r}: "
                    f"{seen[rule.priority]} vs {rule}"
                )
            seen[rule.priority] = rule

    def check_width(self, match: TernaryMatch, what: str) -> None:
        """ValueError unless ``match`` (one of this policy's rules, or
        the flow of a path routed for it) has the header width the
        policy classifies.  An empty policy accepts any width."""
        if self.rules and match.width != self.width:
            raise ValueError(
                f"{what} is {match.width} bits wide; policy "
                f"{self.ingress!r} classifies {self.width}-bit headers"
            )

    def check_flows(self, paths: Iterable[Path]) -> None:
        """:meth:`check_width` for the flow of every path that has one."""
        for path in paths:
            if path.flow is not None:
                self.check_width(
                    path.flow, f"flow of path {path.ingress}->{path.egress}")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """Header width the policy classifies, or 0 for an empty policy."""
        return self.rules[0].match.width if self.rules else 0

    def sorted_rules(self) -> List[Rule]:
        """Rules in decreasing priority (match) order."""
        return sorted(self.rules, key=lambda r: -r.priority)

    def drop_rules(self) -> List[Rule]:
        return [r for r in self.rules if r.is_drop]

    def permit_rules(self) -> List[Rule]:
        return [r for r in self.rules if r.is_permit]

    def rule_by_priority(self, priority: int) -> Rule:
        for rule in self.rules:
            if rule.priority == priority:
                return rule
        raise KeyError(f"no rule with priority {priority} in policy {self.ingress!r}")

    def add_rule(self, rule: Rule) -> None:
        """Append a rule, enforcing priority uniqueness and one width."""
        for existing in self.rules:
            if existing.priority == rule.priority:
                raise ValueError(
                    f"priority {rule.priority} already used in policy {self.ingress!r}"
                )
        self.check_width(rule.match, f"rule t={rule.priority}")
        self.rules.append(rule)
        self._digest = None

    def remove_rule(self, rule: Rule) -> None:
        self.rules.remove(rule)
        self._digest = None

    def content_digest(self) -> str:
        """A digest of the rule content that decides placement structure.

        Covers the default action and every rule's (priority, action,
        match) -- everything the dependency graph depends on -- while
        deliberately excluding the ingress name, so identical rule sets
        attached to different ports share one memoized depgraph (see
        :func:`repro.core.depgraph.build_dependency_graph`).  Rules are
        immutable, so the digest is memoized per policy; the mutators
        (:meth:`add_rule`, :meth:`remove_rule`) invalidate it, keeping
        a mutated policy hashing to a new key rather than a stale one.
        """
        cached = getattr(self, "_digest", None)
        if cached is not None:
            return cached

        def parts():
            yield self.default_action.value
            for rule in self.sorted_rules():
                yield (
                    f"{rule.priority}:{rule.action.value}:{rule.match.width}"
                    f":{rule.match.mask:x}:{rule.match.value:x}"
                )

        digest = canonical_digest(parts())
        self._digest = digest
        return digest

    def next_priority_above(self) -> int:
        """A priority strictly higher than every existing rule's."""
        return max((r.priority for r in self.rules), default=0) + 1

    def next_priority_below(self) -> int:
        """A priority strictly lower than every existing rule's."""
        return min((r.priority for r in self.rules), default=0) - 1

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, header: int) -> Action:
        """First-match evaluation of a single header."""
        for rule in self.sorted_rules():
            if rule.match.matches(header):
                return rule.action
        return self.default_action

    def matching_rule(self, header: int) -> Optional[Rule]:
        """The highest-priority rule matching ``header``, if any."""
        for rule in self.sorted_rules():
            if rule.match.matches(header):
                return rule
        return None

    def drop_region(self) -> RegionSet:
        """The exact set of headers this policy drops.

        Built symbolically: each DROP rule contributes its match minus
        the union of all strictly-higher-priority PERMIT matches (higher
        DROPs don't matter -- the header is dropped either way).  With a
        DROP default, the complement of all PERMIT-decided headers is
        added via the full cube minus permit region.
        """
        width = self.width if self.rules else 0
        region = RegionSet(width)
        ordered = self.sorted_rules()
        for idx, rule in enumerate(ordered):
            if not rule.is_drop:
                continue
            contribution = RegionSet(width, [rule.match])
            for higher in ordered[:idx]:
                if higher.is_permit and higher.match.intersects(rule.match):
                    contribution = contribution.subtract_cube(higher.match)
            for cube in contribution.cubes:
                region.add(cube)
        if self.default_action is Action.DROP:
            leftover = RegionSet(width, [TernaryMatch.wildcard(width)])
            for rule in ordered:
                leftover = leftover.subtract_cube(rule.match)
            for cube in leftover.cubes:
                region.add(cube)
        return region

    def semantically_equal(self, other: "Policy") -> bool:
        """Do the two policies drop exactly the same headers?

        Assumes both use the same default action (checked); with a binary
        decision space, equal drop regions imply equal behaviour.
        """
        if self.default_action is not other.default_action:
            raise ValueError("cannot compare policies with different defaults")
        return self.drop_region().equals(other.drop_region())

    def first_match_is(self, rule: Rule, header: int) -> bool:
        """Is ``rule`` the first match for ``header`` in this policy?"""
        winner = self.matching_rule(header)
        return winner is not None and winner.priority == rule.priority

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = "\n  ".join(str(r) for r in self.sorted_rules())
        return f"Policy({self.ingress}, default={self.default_action}):\n  {body}"


class PolicySet:
    """The distributed firewall specification ``{Q_i}``: one policy per
    ingress port (paper, Section III)."""

    def __init__(self, policies: Iterable[Policy] = ()) -> None:
        self._by_ingress: Dict[str, Policy] = {}
        for policy in policies:
            self.add(policy)

    def add(self, policy: Policy) -> None:
        if policy.ingress in self._by_ingress:
            raise ValueError(f"duplicate policy for ingress {policy.ingress!r}")
        self._by_ingress[policy.ingress] = policy

    def remove(self, ingress: str) -> Policy:
        return self._by_ingress.pop(ingress)

    def __getitem__(self, ingress: str) -> Policy:
        return self._by_ingress[ingress]

    def __contains__(self, ingress: str) -> bool:
        return ingress in self._by_ingress

    def __iter__(self) -> Iterator[Policy]:
        return iter(self._by_ingress.values())

    def __len__(self) -> int:
        return len(self._by_ingress)

    @property
    def ingresses(self) -> Tuple[str, ...]:
        return tuple(self._by_ingress)

    def total_rules(self) -> int:
        """Total number of rules across all policies (the paper's ``A``
        when computing duplication overhead in Table II)."""
        return sum(len(p) for p in self._by_ingress.values())
