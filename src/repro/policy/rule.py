"""ACL rules: the tuple ``(m, d, t)`` of the paper's problem definition.

A rule ``r = (m, d, t)`` has a ternary matching field ``m``, a binary
decision ``d`` (PERMIT or DROP) and a priority ``t``.  Within a policy,
priorities are strict: larger ``t`` means higher priority (paper,
Section III: ``t_{i,j} < t_{i,k}`` means rule *j* has *lower* priority).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from .ternary import TernaryMatch, concat_matches

__all__ = ["Action", "Rule", "FiveTuple", "FIVE_TUPLE_WIDTH"]


class Action(enum.Enum):
    """The binary decision field of a firewall rule."""

    PERMIT = "permit"
    DROP = "drop"

    def __invert__(self) -> "Action":
        return Action.DROP if self is Action.PERMIT else Action.PERMIT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Field widths of a classic 5-tuple classifier (src IP, dst IP, src
# port, dst port, protocol), used by the ClassBench-style generator.
_FIELD_WIDTHS = (32, 32, 16, 16, 8)
FIVE_TUPLE_WIDTH = sum(_FIELD_WIDTHS)


@dataclass(frozen=True)
class FiveTuple:
    """Convenience builder for 5-tuple matching fields.

    Each component is a :class:`TernaryMatch` of the conventional width;
    ``None`` means fully wildcarded.  ``to_match`` concatenates the
    fields into the single wide ternary word used internally.
    """

    src_ip: Optional[TernaryMatch] = None
    dst_ip: Optional[TernaryMatch] = None
    src_port: Optional[TernaryMatch] = None
    dst_port: Optional[TernaryMatch] = None
    protocol: Optional[TernaryMatch] = None

    def to_match(self) -> TernaryMatch:
        fields = []
        for component, width in zip(
            (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol),
            _FIELD_WIDTHS,
        ):
            if component is None:
                component = TernaryMatch.wildcard(width)
            elif component.width != width:
                raise ValueError(
                    f"5-tuple field width {component.width} != expected {width}"
                )
            fields.append(component)
        return concat_matches(fields)


@dataclass(frozen=True)
class Rule:
    """A single prioritized ACL rule ``(match, action, priority)``.

    ``priority`` follows the paper's convention: strictly larger values
    win.  ``name`` is an optional human-readable label carried through
    placement for reporting and debugging.
    """

    match: TernaryMatch
    action: Action
    priority: int
    name: str = ""

    @property
    def is_drop(self) -> bool:
        return self.action is Action.DROP

    @property
    def is_permit(self) -> bool:
        return self.action is Action.PERMIT

    def overlaps(self, other: "Rule") -> bool:
        """True when the matching fields share at least one header."""
        return self.match.intersects(other.match)

    def same_behavior(self, other: "Rule") -> bool:
        """Identical matching field and action (the merging criterion of
        Section IV-B), regardless of priority or label."""
        return self.match == other.match and self.action == other.action

    def with_priority(self, priority: int) -> "Rule":
        """A copy of this rule at a different priority."""
        return replace(self, priority=priority)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name}" if self.name else ""
        return f"[t={self.priority}{label}] {self.match.to_string()} -> {self.action}"
