"""Objective functions for the placement ILP (paper Section IV-A4).

The paper highlights that the single mathematical framework accepts
many objectives.  Implemented here:

* :class:`TotalRules` -- minimize the total number of installed rules
  (the paper's primary objective; maximizes slack for future rules).
  Merge-aware: an active merge group counts once, not per member.
* :class:`UpstreamDrops` -- minimize ``sum v_{i,j,k} * loc(s_k, P_i)``,
  pushing DROP rules toward the ingress to cut wasted traffic.
* :class:`WeightedSwitches` -- per-switch weights, favouring placement
  on designated switches (the paper's "weighted placement").
* :class:`SwitchCount` -- minimize the number of switches holding any
  rule (adds indicator variables).
* :class:`Combined` -- a weighted sum of the above, e.g. total rules
  with a small upstream tie-break.

:data:`NAMED_OBJECTIVES` is the one table of the objectives a solve
names on the command line and on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Tuple

from ..milp.model import LinExpr, lin_sum
from .ilp import IlpEncoding

__all__ = [
    "Objective",
    "TotalRules",
    "UpstreamDrops",
    "WeightedSwitches",
    "SwitchCount",
    "Combined",
    "NAMED_OBJECTIVES",
    "apply_objective",
]


class Objective(Protocol):
    """An objective is anything that can render itself on an encoding."""

    def build(self, encoding: IlpEncoding) -> LinExpr:  # pragma: no cover
        ...


@dataclass(frozen=True)
class TotalRules:
    """``min sum v`` with the Section IV-B merge adjustment: each member
    of an active group is discounted and the shared entry costs 1, i.e.
    ``min sum v - sum_g (M_g - 1) * vm_g``."""

    def build(self, encoding: IlpEncoding) -> LinExpr:
        expr = lin_sum(encoding.var_of.values())
        if encoding.merge_plan is not None:
            for (gid, switch), members in encoding.merge_plan.members_at.items():
                vm = encoding.merge_var_of[(gid, switch)]
                expr.add_term(vm, -(len(members) - 1))
        return expr


@dataclass(frozen=True)
class UpstreamDrops:
    """``min sum v_{i,j,k} * loc(s_k, P_i)`` over DROP rules.

    ``loc`` is the compile-time hop distance of the switch from the
    ingress (0 = ingress switch), so dropping early is cheapest: every
    hop a doomed packet travels is wasted network traffic.
    """

    #: Also weight PERMIT placements (default: drops only, as the paper
    #: motivates the objective by where packets are *dropped*).
    include_permits: bool = False

    def build(self, encoding: IlpEncoding) -> LinExpr:
        instance = encoding.instance
        expr = LinExpr()
        for (key, switch), var in encoding.var_of.items():
            ingress, priority = key
            rule = instance.rule(key)
            if rule.is_drop or self.include_permits:
                expr.add_term(var, float(instance.routing.loc(switch, ingress)))
        return expr


@dataclass(frozen=True)
class WeightedSwitches:
    """``min sum v * weight(switch)``: steer rules toward cheap switches."""

    weights: Tuple[Tuple[str, float], ...]
    default_weight: float = 1.0

    @classmethod
    def from_dict(cls, weights: Dict[str, float],
                  default_weight: float = 1.0) -> "WeightedSwitches":
        return cls(tuple(sorted(weights.items())), default_weight)

    def build(self, encoding: IlpEncoding) -> LinExpr:
        table = dict(self.weights)
        expr = LinExpr()
        for (key, switch), var in encoding.var_of.items():
            expr.add_term(var, table.get(switch, self.default_weight))
        return expr


@dataclass(frozen=True)
class SwitchCount:
    """Minimize the number of switches that hold at least one rule.

    Adds an indicator ``y_k`` per switch with ``v <= y_k`` for every
    placement variable on ``k``; minimizes ``sum y``.
    """

    def build(self, encoding: IlpEncoding) -> LinExpr:
        model = encoding.model
        per_switch: Dict[str, List] = {}
        for (key, switch), var in encoding.var_of.items():
            per_switch.setdefault(switch, []).append(var)
        indicators = []
        for switch, variables in sorted(per_switch.items()):
            y = model.add_binary(f"used[{switch}]")
            for var in variables:
                model.add_constraint(var.to_expr() <= y)
            indicators.append(y)
        return lin_sum(indicators)


@dataclass(frozen=True)
class Combined:
    """A weighted sum of component objectives.

    Example: ``Combined(((1.0, TotalRules()), (0.01, UpstreamDrops())))``
    minimizes rules first with an upstream preference as tie-break.
    """

    components: Tuple[Tuple[float, Objective], ...]

    def build(self, encoding: IlpEncoding) -> LinExpr:
        expr = LinExpr()
        for weight, component in self.components:
            expr = expr + component.build(encoding) * weight
        return expr


#: The objectives ``repro solve --objective`` and a wire solve's
#: ``objective`` name: total rules, upstream drops, or total rules with
#: an upstream tie-break.
NAMED_OBJECTIVES: Dict[str, Objective] = {
    "rules": TotalRules(),
    "upstream": UpstreamDrops(),
    "combined": Combined(((1.0, TotalRules()), (0.001, UpstreamDrops()))),
}


def apply_objective(encoding: IlpEncoding, objective: Objective) -> None:
    """Render and install the objective on the encoding's model."""
    encoding.model.set_objective(objective.build(encoding))
