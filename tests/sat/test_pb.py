"""Exactness tests for the BDD-based pseudo-Boolean encodings."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat.cdcl import solve_cnf
from repro.sat.cnf import CNF
from repro.sat.pb import PBTerm, pb_le


def project(coeffs, signs, bound):
    """Check the encoding against arithmetic for every assignment."""
    n = len(coeffs)
    for bits in range(1 << n):
        cnf = CNF()
        xs = [cnf.new_var() for _ in range(n)]
        lits = [x if s else -x for x, s in zip(xs, signs)]
        pb_le(cnf, [PBTerm(c, l) for c, l in zip(coeffs, lits)], bound)
        total = 0
        for i, x in enumerate(xs):
            value = bool((bits >> i) & 1)
            cnf.add_clause([x] if value else [-x])
            literal_true = value == signs[i]
            if literal_true:
                total += coeffs[i]
        assert solve_cnf(cnf).is_sat == (total <= bound), \
            (coeffs, signs, bound, bits)


class TestPbLe:
    def test_simple(self):
        project([2, 3, 4], [True, True, True], 5)

    def test_negative_coefficients(self):
        project([-2, 3], [True, True], 0)

    def test_negated_literals(self):
        project([2, 3], [False, True], 3)

    def test_duplicate_literals_merge(self):
        cnf = CNF()
        x = cnf.new_var()
        pb_le(cnf, [PBTerm(2, x), PBTerm(3, x)], 4)
        cnf.add_clause([x])
        assert not solve_cnf(cnf).is_sat

    def test_opposite_literals_cancel(self):
        # 2x + 2(!x) == 2 always; bound 1 is UNSAT, bound 2 SAT.
        for bound, expected in ((1, False), (2, True)):
            cnf = CNF()
            x = cnf.new_var()
            pb_le(cnf, [PBTerm(2, x), PBTerm(2, -x)], bound)
            assert solve_cnf(cnf).is_sat == expected

    def test_trivial_bounds(self):
        cnf = CNF()
        x = cnf.new_var()
        pb_le(cnf, [PBTerm(1, x)], 5)  # always satisfied
        assert len(cnf) == 0
        pb_le(cnf, [PBTerm(1, x)], -1)  # never satisfiable
        assert not solve_cnf(cnf).is_sat

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            pb_le(cnf, [PBTerm(1, 0)], 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-5, 6), min_size=1, max_size=5),
    st.data(),
)
def test_randomized_projection(coeffs, data):
    signs = data.draw(st.lists(
        st.booleans(), min_size=len(coeffs), max_size=len(coeffs)
    ))
    bound = data.draw(st.integers(-8, 15))
    project(coeffs, signs, bound)
