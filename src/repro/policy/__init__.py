"""Firewall policy substrate: ternary matches, rules, prioritized
policies, redundancy removal and ClassBench-style synthesis."""

from .ternary import TernaryMatch, RegionSet, concat_matches
from .rule import Action, Rule, FiveTuple, FIVE_TUPLE_WIDTH
from .policy import Policy, PolicySet
from .redundancy import RedundancyReport, remove_redundant_rules, find_redundant_rules
from .classbench import (
    PolicyGenerator,
    PolicyGeneratorConfig,
    generate_policy_set,
)
from .textfmt import parse_policy, format_policy, parse_rule_line, PolicyParseError

__all__ = [
    "TernaryMatch",
    "RegionSet",
    "concat_matches",
    "Action",
    "Rule",
    "FiveTuple",
    "FIVE_TUPLE_WIDTH",
    "Policy",
    "PolicySet",
    "RedundancyReport",
    "remove_redundant_rules",
    "find_redundant_rules",
    "PolicyGenerator",
    "PolicyGeneratorConfig",
    "generate_policy_set",
    "parse_policy",
    "format_policy",
    "parse_rule_line",
    "PolicyParseError",
]
