"""COO-triplet constraint blocks: semantics, validation, backend parity.

``Model.add_linear_block`` must be a pure encoding optimization: a model
built from blocks solves to the same answer as the same rows expressed
through the operator API, on every backend -- SciPy/HiGHS consumes the
triplets natively, branch-and-bound and LP export see them via
``all_constraints()``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict

import numpy as np
import pytest

from repro.core.ilp import IlpEncoding, _san, build_encoding
from repro.core.objectives import TotalRules, apply_objective
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.milp.bnb import BranchAndBoundBackend
from repro.milp.lpfile import to_lp_string
from repro.milp.model import LinExpr, Model, Sense, SolveStatus, lin_sum
from repro.milp.scipy_backend import ScipyMilpBackend


def block_model():
    """min x+y+z  s.t.  x+y >= 1,  y+z >= 1,  x+y+z <= 2  (binaries)."""
    model = Model("blocks")
    x = model.add_binary("x")
    y = model.add_binary("y")
    z = model.add_binary("z")
    model.add_linear_block(
        rows=[0, 0, 1, 1], cols=[x.index, y.index, y.index, z.index],
        data=[1.0, 1.0, 1.0, 1.0], sense=Sense.GE, rhs=[1.0, 1.0],
        name_prefix="cover",
    )
    model.add_linear_block(
        rows=[0, 0, 0], cols=[x.index, y.index, z.index],
        data=[1.0, 1.0, 1.0], sense=Sense.LE, rhs=[2.0],
    )
    model.set_objective(x + y + z)
    return model, (x, y, z)


class TestBlockSemantics:
    def test_counts_include_blocks(self):
        model, _ = block_model()
        assert model.num_constraints() == 3
        assert len(model.constraints) == 0
        assert len(model.blocks) == 2

    def test_all_constraints_materializes_rows(self):
        model, (x, y, z) = block_model()
        cons = model.all_constraints()
        assert [c.name for c in cons] == ["cover[0]", "cover[1]", "blk[0]"]
        assert cons[0].expr.coeffs == {x.index: 1.0, y.index: 1.0}
        assert cons[0].sense is Sense.GE and cons[0].rhs == 1.0
        assert cons[2].sense is Sense.LE and cons[2].rhs == 2.0

    def test_all_constraints_without_blocks_is_identity(self):
        model = Model("plain")
        x = model.add_binary("x")
        model.add_constraint(x.to_expr() >= 1, name="only")
        assert model.all_constraints() is model.constraints

    def test_duplicate_triplets_accumulate(self):
        model = Model("dup")
        x = model.add_binary("x")
        block = model.add_linear_block(
            rows=[0, 0], cols=[x.index, x.index], data=[1.0, 1.0],
            sense=Sense.LE, rhs=[1.0],
        )
        (con,) = block.to_constraints()
        assert con.expr.coeffs == {x.index: 2.0}

    def test_bounds(self):
        model, _ = block_model()
        lower, upper = model.blocks[0].bounds()
        assert lower.tolist() == [1.0, 1.0]
        assert upper.tolist() == [np.inf, np.inf]
        lower, upper = model.blocks[1].bounds()
        assert lower.tolist() == [-np.inf]
        assert upper.tolist() == [2.0]

    def test_coo_lists_operator_rows_before_block_rows(self):
        model, (x, y, z) = block_model()
        model.add_constraint(x.to_expr() <= 0, name="op")
        rows, cols, data, lower, upper = model.coo()
        assert rows.tolist() == [0, 1, 1, 2, 2, 3, 3, 3]
        assert cols.tolist() == [x.index, x.index, y.index, y.index,
                                 z.index, x.index, y.index, z.index]
        assert data.tolist() == [1.0] * 8
        assert lower.tolist() == [-np.inf, 1.0, 1.0, -np.inf]
        assert upper.tolist() == [0.0, np.inf, np.inf, 2.0]

    def test_check_solution_covers_blocks(self):
        model, (x, y, z) = block_model()
        ok = {x.index: 1.0, y.index: 1.0, z.index: 0.0}
        bad = {x.index: 1.0, y.index: 0.0, z.index: 0.0}  # y+z >= 1 broken
        assert model.check_solution(ok)
        assert not model.check_solution(bad)


class TestValidation:
    def test_ragged_triplets_rejected(self):
        model = Model("v")
        x = model.add_binary("x")
        with pytest.raises(ValueError, match="parallel"):
            model.add_linear_block([0], [x.index, x.index], [1.0],
                                   Sense.LE, [1.0])

    def test_row_out_of_range_rejected(self):
        model = Model("v")
        x = model.add_binary("x")
        with pytest.raises(ValueError, match="row id"):
            model.add_linear_block([1], [x.index], [1.0], Sense.LE, [1.0])

    def test_unknown_variable_rejected(self):
        model = Model("v")
        model.add_binary("x")
        with pytest.raises(ValueError, match="unknown variable"):
            model.add_linear_block([0], [5], [1.0], Sense.LE, [1.0])

    def test_sense_count_mismatch_rejected(self):
        model = Model("v")
        x = model.add_binary("x")
        with pytest.raises(ValueError, match="senses"):
            model.add_linear_block([0], [x.index], [1.0],
                                   [Sense.LE, Sense.GE], [1.0])


class TestBackendParity:
    def test_scipy_solves_block_model(self):
        model, _ = block_model()
        result = ScipyMilpBackend().solve(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(1.0)

    def test_bnb_solves_block_model(self):
        model, _ = block_model()
        result = BranchAndBoundBackend().solve(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(1.0)

    def test_lp_export_includes_block_rows(self):
        model, _ = block_model()
        text = to_lp_string(model)
        assert "cover[0]" in text and "blk[0]" in text

    def test_infeasible_block_detected(self):
        model = Model("inf")
        x = model.add_binary("x")
        model.add_linear_block([0], [x.index], [1.0], Sense.GE, [2.0])
        result = ScipyMilpBackend().solve(model)
        assert result.status is SolveStatus.INFEASIBLE


def emit_families_by_row(encoding: IlpEncoding) -> None:
    """Reference emitter: Eq. 1-3 one operator-API row at a time, the
    straightforward form the production COO blocks must reproduce."""
    instance = encoding.instance
    model = encoding.model
    slices = encoding.slices
    depgraphs = encoding.depgraphs
    merge_plan = encoding.merge_plan

    # --- rule dependency (Eq. 1) ----------------------------------------
    for policy in instance.policies:
        ingress = policy.ingress
        graph = depgraphs[ingress]
        for drop_priority in graph.drop_priorities():
            drop_key = (ingress, drop_priority)
            for switch in slices.domain(drop_key):
                v_drop = encoding.var_of[(drop_key, switch)]
                for permit_priority in graph.dependencies_of(drop_priority):
                    permit_key = (ingress, permit_priority)
                    v_permit = encoding.var_of[(permit_key, switch)]
                    model.add_constraint(
                        v_permit.to_expr() >= v_drop,
                        name=f"dep[{_san(ingress)},{drop_priority},"
                             f"{permit_priority},{_san(switch)}]",
                    )

    # --- path dependency (Eq. 2, per path, sliced per Section IV-C) ------
    for policy in instance.policies:
        ingress = policy.ingress
        for path_index, path in enumerate(instance.routing.paths(ingress)):
            for drop_priority in slices.drops_for_path(ingress, path_index):
                key = (ingress, drop_priority)
                terms = [
                    encoding.var_of[(key, switch)]
                    for switch in path.switches
                    if (key, switch) in encoding.var_of
                ]
                model.add_constraint(
                    lin_sum(terms) >= 1,
                    name=f"path[{_san(ingress)},{path_index},{drop_priority}]",
                )

    # --- switch capacity (Eq. 3, merge-adjusted per Section IV-B) --------
    merge_terms: Dict[str, LinExpr] = {}
    if merge_plan is not None:
        for (gid, switch), members in merge_plan.members_at.items():
            m = len(members)
            vm = encoding.merge_var_of[(gid, switch)]
            expr = merge_terms.setdefault(switch, LinExpr())
            expr.add_term(vm, -(m - 1))
    for switch, variables in encoding.vars_by_switch.items():
        expr = lin_sum(variables)
        if switch in merge_terms:
            expr = expr + merge_terms[switch]
        model.add_constraint(
            expr <= instance.capacity(switch), name=f"cap[{_san(switch)}]"
        )


def reference_model(encoding: IlpEncoding) -> Model:
    """The encoding's variables, objective, merge-linking and pin rows,
    with Eq. 1-3 from the reference emitter instead of the blocks."""
    reference = replace(encoding, model=Model("reference"))
    reference.model.variables = list(encoding.model.variables)
    emit_families_by_row(reference)
    reference.model.constraints.extend(encoding.model.constraints)
    reference.model.set_objective(encoding.model.objective)
    return reference.model


def row_multiset(model: Model) -> Counter:
    """Every row as (nonzero columns and coefficients, sense, rhs)."""
    return Counter(
        (tuple(sorted((i, c) for i, c in row.expr.coeffs.items() if c)),
         row.sense, row.rhs + 0.0)
        for row in model.all_constraints()
    )


class TestEncodingDifferential:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("merging", [False, True])
    def test_bulk_equals_operator(self, seed, merging):
        """The production block encoding holds the same rows as the
        row-by-row reference and solves to the same optimum."""
        instance = build_instance(ExperimentConfig(
            seed=seed, num_ingresses=3, rules_per_policy=15))
        encoding = build_encoding(instance, enable_merging=merging)
        apply_objective(encoding, TotalRules())
        reference = reference_model(encoding)
        assert all(block.num_rows for block in encoding.model.blocks)
        assert row_multiset(encoding.model) == row_multiset(reference)
        backend = ScipyMilpBackend()
        r_ref = backend.solve(reference)
        r_prod = backend.solve(encoding.model)
        assert r_prod.status is r_ref.status
        assert r_prod.objective == pytest.approx(r_ref.objective)
        # Cross-feasibility: each solution satisfies the other model.
        if r_ref.has_solution:
            assert encoding.model.check_solution(r_ref.values)
            assert reference.check_solution(r_prod.values)

    def test_mixed_operator_and_block_rows(self):
        # A model carrying both kinds at once (merge linking stays
        # operator-form).
        instance = build_instance(ExperimentConfig(
            seed=2, num_ingresses=2, rules_per_policy=12, blacklist_rules=5))
        enc = build_encoding(instance, enable_merging=True)
        assert enc.model.blocks and enc.model.constraints
        apply_objective(enc, TotalRules())
        result = ScipyMilpBackend().solve(enc.model)
        assert result.status is SolveStatus.OPTIMAL
        assert enc.model.check_solution(result.values)
