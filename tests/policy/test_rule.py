"""Tests for rules, actions, and the 5-tuple builder."""

from __future__ import annotations

import pytest

from repro.policy.rule import Action, FiveTuple, Rule, FIVE_TUPLE_WIDTH
from repro.policy.ternary import TernaryMatch


class TestAction:
    def test_invert(self):
        assert ~Action.PERMIT is Action.DROP
        assert ~Action.DROP is Action.PERMIT

    def test_str(self):
        assert str(Action.DROP) == "drop"


class TestRule:
    def test_flags(self):
        drop = Rule(TernaryMatch.wildcard(4), Action.DROP, 1)
        permit = Rule(TernaryMatch.wildcard(4), Action.PERMIT, 2)
        assert drop.is_drop and not drop.is_permit
        assert permit.is_permit and not permit.is_drop

    def test_overlaps(self):
        a = Rule(TernaryMatch.from_string("1**0"), Action.DROP, 1)
        b = Rule(TernaryMatch.from_string("1*1*"), Action.PERMIT, 2)
        c = Rule(TernaryMatch.from_string("0***"), Action.PERMIT, 3)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_same_behavior_ignores_priority_and_name(self):
        a = Rule(TernaryMatch.from_string("1***"), Action.DROP, 1, "a")
        b = Rule(TernaryMatch.from_string("1***"), Action.DROP, 9, "b")
        c = Rule(TernaryMatch.from_string("1***"), Action.PERMIT, 1)
        assert a.same_behavior(b)
        assert not a.same_behavior(c)

    def test_with_priority(self):
        rule = Rule(TernaryMatch.wildcard(4), Action.DROP, 1, "x")
        bumped = rule.with_priority(7)
        assert bumped.priority == 7
        assert bumped.match == rule.match
        assert bumped.name == "x"


class TestFiveTuple:
    def test_default_is_full_wildcard(self):
        match = FiveTuple().to_match()
        assert match.width == FIVE_TUPLE_WIDTH
        assert match.is_full()

    def test_field_placement(self):
        """src_ip occupies the most significant 32 bits."""
        src = TernaryMatch.exact(32, 0x0A000001)
        match = FiveTuple(src_ip=src).to_match()
        assert match.width == FIVE_TUPLE_WIDTH
        header = 0x0A000001 << (FIVE_TUPLE_WIDTH - 32)
        assert match.matches(header)
        assert not match.matches(0)

    def test_protocol_is_least_significant(self):
        proto = TernaryMatch.exact(8, 6)
        match = FiveTuple(protocol=proto).to_match()
        assert match.matches(6)
        assert not match.matches(17)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            FiveTuple(src_ip=TernaryMatch.wildcard(16)).to_match()
