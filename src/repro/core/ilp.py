"""The ILP formulation of rule placement (paper Section IV-A).

Builds a :class:`repro.milp.Model` with one binary variable
``v_{i,j,k}`` per (policy *i*, rule *j*, switch *k* in the rule's
placement domain) and the paper's three constraint families:

* **Rule dependency** (Eq. 1): placing DROP rule ``w`` on switch ``k``
  forces every higher-priority overlapping PERMIT ``u`` onto ``k``:
  ``v_{i,u,k} >= v_{i,w,k}``.
* **Path dependency** (Eq. 2): every (path-relevant) DROP rule must sit
  somewhere on *each* path from its ingress:
  ``sum_{k in path} v_{i,j,k} >= 1``.  (The paper's Eq. 2 sums over
  ``S_i``; its text and Fig. 3 make clear the intended quantification
  is per path, which is what we implement -- summing over the union
  would let a drop guard one path while another leaks.)
* **Switch capacity** (Eq. 3): ``sum v_{.,.,k} <= C_k``, adjusted for
  merging as in Section IV-B -- each member of an active merge group
  stops counting and the group's single shared entry counts once:
  ``sum v - sum_g (M_g - 1) * vm_g <= C_k``.

Merging itself is linked with Eq. 4/5:
``vm >= sum(members) - (M-1)`` and ``M * vm <= sum(members)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..milp.model import Model, Sense, Variable, lin_sum
from .depgraph import DependencyGraph, build_dependency_graph
from .instance import PlacementInstance, RuleKey
from .merging import MergePlan, build_merge_plan
from .slicing import SliceInfo, build_slices

__all__ = ["IlpEncoding", "build_encoding"]


@dataclass
class IlpEncoding:
    """A built model plus the variable maps needed to read solutions."""

    instance: PlacementInstance
    model: Model
    depgraphs: Dict[str, DependencyGraph]
    slices: SliceInfo
    merge_plan: Optional[MergePlan]
    #: ``(rule key, switch) -> v`` placement variables.
    var_of: Dict[Tuple[RuleKey, str], Variable] = field(default_factory=dict)
    #: ``(merge gid, switch) -> vm`` merge indicator variables.
    merge_var_of: Dict[Tuple[int, str], Variable] = field(default_factory=dict)
    #: Per-switch placement-variable index, built once during encoding;
    #: ``variables_at`` and capacity emission read it instead of
    #: scanning every ``(key, switch)`` entry per call.
    vars_by_switch: Dict[str, List[Variable]] = field(default_factory=dict)
    #: Constraint-family name (``dep``/``path``/``cap``) -> index into
    #: ``model.blocks``, so a reader finds one family's rows without
    #: knowing the emission order.
    family_blocks: Dict[str, int] = field(default_factory=dict)

    def variables_at(self, switch: str) -> List[Variable]:
        return list(self.vars_by_switch.get(switch, ()))

    def num_placement_vars(self) -> int:
        return len(self.var_of)


def _san(text: str) -> str:
    """Variable-name-safe rendering of identifiers."""
    return text.replace(" ", "_")


def build_encoding(
    instance: PlacementInstance,
    enable_merging: bool = False,
    depgraphs: Optional[Dict[str, DependencyGraph]] = None,
    fixed: Optional[Dict[Tuple[RuleKey, str], int]] = None,
    slices: Optional[SliceInfo] = None,
) -> IlpEncoding:
    """Construct the full ILP for an instance (objective set separately).

    ``fixed`` pins chosen placement variables to 0/1 -- the mechanism
    incremental deployment (Section IV-E) uses to freeze the untouched
    part of an existing solution while re-solving a sub-problem.

    The three constraint families land as COO-triplet
    :class:`~repro.milp.model.LinearBlock` arrays (rows ``dep[i]``,
    ``path[i]``, ``cap[i]``), which the sparse backend receives as CSR
    input directly; merge linking and pins stay named operator rows.
    """
    depgraphs = depgraphs or {
        policy.ingress: build_dependency_graph(policy) for policy in instance.policies
    }
    if slices is None:
        slices = build_slices(instance, depgraphs)
    merge_plan = build_merge_plan(instance, slices) if enable_merging else None

    model = Model("rule-placement")
    encoding = IlpEncoding(instance, model, depgraphs, slices, merge_plan)

    # --- variables ------------------------------------------------------
    # Batched creation: one location pass, one Variable pass, with the
    # inner loops running through itertools at C speed.  Placement
    # variables get compact positional names (``v{index}``): building
    # descriptive names is a measurable share of encode time at scale,
    # and ``var_of`` is the supported way to address them.
    locs: List[Tuple[RuleKey, str]] = []
    for key, switches in slices.domains.items():
        locs.extend(zip(repeat(key), switches))
    created = model.add_binaries(map("v%d".__mod__, range(len(locs))))
    encoding.var_of = dict(zip(locs, created))
    vars_by_switch = encoding.vars_by_switch
    for (key, switch), var in zip(locs, created):
        bucket = vars_by_switch.get(switch)
        if bucket is None:
            bucket = vars_by_switch[switch] = []
        bucket.append(var)
    if merge_plan is not None:
        for (gid, switch), members in merge_plan.members_at.items():
            encoding.merge_var_of[(gid, switch)] = model.add_binary(
                f"vm[{gid},{_san(switch)}]"
            )

    _emit_families(encoding)

    # --- merge linking (Eq. 4 / Eq. 5) ------------------------------------
    if merge_plan is not None:
        for (gid, switch), members in merge_plan.members_at.items():
            vm = encoding.merge_var_of[(gid, switch)]
            member_sum = lin_sum(
                encoding.var_of[(key, switch)] for key in members
            )
            m = len(members)
            model.add_constraint(
                vm.to_expr() >= member_sum - (m - 1),
                name=f"mrg_lo[{gid},{_san(switch)}]",
            )
            model.add_constraint(
                vm * m <= member_sum, name=f"mrg_hi[{gid},{_san(switch)}]"
            )

    # --- incremental pinning ----------------------------------------------
    if fixed:
        for (key, switch), value in fixed.items():
            var = encoding.var_of.get((key, switch))
            if var is None:
                if value:
                    raise KeyError(
                        f"cannot pin missing variable for {key} at {switch!r}"
                    )
                continue
            model.add_constraint(
                var.to_expr().eq(float(value)),
                name=f"pin[{_san(key[0])},{key[1]},{_san(switch)}]",
            )

    return encoding


def _emit_families(encoding: IlpEncoding) -> None:
    """COO-triplet emission of Eq. 1-3, one
    :meth:`~repro.milp.model.Model.add_linear_block` call per family."""
    instance = encoding.instance
    model = encoding.model
    slices = encoding.slices
    depgraphs = encoding.depgraphs
    merge_plan = encoding.merge_plan
    var_of = encoding.var_of

    # --- rule dependency (Eq. 1): v_permit - v_drop >= 0 -----------------
    # Each row is exactly the pair (+1 permit, -1 drop), so only the
    # column ids are collected in Python; rows and data are synthesized
    # as arrays (np.repeat / np.tile) afterwards.
    cols: List[int] = []
    for policy in instance.policies:
        ingress = policy.ingress
        graph = depgraphs[ingress]
        for drop_priority in graph.drop_priorities():
            drop_key = (ingress, drop_priority)
            deps = graph.dependencies_of(drop_priority)
            if not deps:
                continue
            permit_keys = [(ingress, p) for p in deps]
            for switch in slices.domain(drop_key):
                drop_idx = var_of[(drop_key, switch)].index
                for permit_key in permit_keys:
                    cols.append(var_of[(permit_key, switch)].index)
                    cols.append(drop_idx)
    r = len(cols) // 2
    # Every family block is emitted even when empty, so
    # ``family_blocks`` always names all three.
    encoding.family_blocks["dep"] = len(model.blocks)
    model.add_linear_block(
        np.repeat(np.arange(r, dtype=np.int64), 2), cols,
        np.tile(np.array([1.0, -1.0]), r), Sense.GE,
        np.zeros(r), "dep",
    )

    # --- path dependency (Eq. 2): sum_{k in path} v >= 1 -----------------
    cols = []
    counts: List[int] = []
    for policy in instance.policies:
        ingress = policy.ingress
        for path_index, path in enumerate(instance.routing.paths(ingress)):
            for drop_priority in slices.drops_for_path(ingress, path_index):
                key = (ingress, drop_priority)
                before = len(cols)
                for switch in path.switches:
                    var = var_of.get((key, switch))
                    if var is not None:
                        cols.append(var.index)
                # The row is emitted even with no variables on the path
                # (0 >= 1): explicit infeasibility rather than silently
                # dropping the rule.
                counts.append(len(cols) - before)
    r = len(counts)
    encoding.family_blocks["path"] = len(model.blocks)
    model.add_linear_block(
        np.repeat(np.arange(r, dtype=np.int64), counts), cols,
        np.ones(len(cols)), Sense.GE, np.ones(r), "path",
    )

    # --- switch capacity (Eq. 3, merge-adjusted per Section IV-B) --------
    cols = []
    data: List[float] = []
    counts = []
    rhs: List[float] = []
    merge_adjust: Dict[str, List[Tuple[int, float]]] = {}
    if merge_plan is not None:
        for (gid, switch), members in merge_plan.members_at.items():
            vm = encoding.merge_var_of[(gid, switch)]
            merge_adjust.setdefault(switch, []).append(
                (vm.index, -(len(members) - 1))
            )
    for switch, variables in encoding.vars_by_switch.items():
        before = len(cols)
        cols.extend(var.index for var in variables)
        data.extend(repeat(1.0, len(variables)))
        for vm_index, coeff in merge_adjust.get(switch, ()):
            cols.append(vm_index)
            data.append(float(coeff))
        counts.append(len(cols) - before)
        rhs.append(float(instance.capacity(switch)))
    r = len(counts)
    encoding.family_blocks["cap"] = len(model.blocks)
    model.add_linear_block(
        np.repeat(np.arange(r, dtype=np.int64), counts), cols,
        data, Sense.LE, rhs, "cap",
    )
