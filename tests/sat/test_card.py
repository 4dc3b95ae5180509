"""Exactness tests for the sequential-counter cardinality encodings."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sat.card import at_most_k
from repro.sat.cdcl import solve_cnf
from repro.sat.cnf import CNF


def check_projection(n: int, k: int) -> None:
    """For every 0/1 pattern of the n base variables, the encoded
    formula (with the pattern forced) must be SAT exactly when the
    pattern satisfies the counting constraint."""
    for bits in range(1 << n):
        cnf = CNF()
        xs = [cnf.new_var() for _ in range(n)]
        at_most_k(cnf, xs, k)
        count = 0
        for i, x in enumerate(xs):
            if (bits >> i) & 1:
                cnf.add_clause([x])
                count += 1
            else:
                cnf.add_clause([-x])
        assert solve_cnf(cnf).is_sat == (count <= k), (n, k, bits)


class TestAtMostK:
    @pytest.mark.parametrize("n,k", [(1, 0), (3, 1), (4, 2), (5, 0), (5, 5), (4, 3)])
    def test_exact_projection(self, n, k):
        check_projection(n, k)

    def test_negative_k_unsat(self):
        cnf = CNF()
        xs = [cnf.new_var()]
        at_most_k(cnf, xs, -1)
        assert not solve_cnf(cnf).is_sat

    def test_trivial_no_clauses(self):
        cnf = CNF()
        xs = [cnf.new_var() for _ in range(3)]
        at_most_k(cnf, xs, 3)
        assert len(cnf) == 0

    def test_works_with_negated_literals(self):
        cnf = CNF()
        xs = [cnf.new_var() for _ in range(3)]
        at_most_k(cnf, [-x for x in xs], 1)
        for x in xs[:2]:
            cnf.add_clause([-x])  # two negated literals true
        assert not solve_cnf(cnf).is_sat


class TestModels:
    @pytest.mark.parametrize("seed", range(3))
    def test_returned_models_respect_bound(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            cnf = CNF()
            n = rng.randint(2, 8)
            xs = [cnf.new_var() for _ in range(n)]
            k = rng.randint(0, n)
            at_most_k(cnf, xs, k)
            # Encourage some variables on.
            for x in rng.sample(xs, min(k, n)):
                cnf.add_clause([x])
            result = solve_cnf(cnf)
            assert result.is_sat
            assert sum(result.model[x] for x in xs) <= k
