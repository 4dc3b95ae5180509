"""Cardinality constraints over CNF (sequential-counter encoding).

The satisfiability formulation of the paper (Section IV-D) keeps the
switch capacity constraint (Eq. 3) as a counting constraint: at most
``C_k`` of the placement variables per switch may be true.  We compile
such constraints to clauses with Sinz's sequential counter, which is
arc-consistent under unit propagation and uses ``O(n*k)`` auxiliary
variables and clauses.
"""

from __future__ import annotations

from typing import List, Sequence

from .cnf import CNF

__all__ = ["at_most_k"]


def at_most_k(cnf: CNF, literals: Sequence[int], k: int) -> None:
    """Add clauses enforcing ``sum(literals) <= k``.

    Sequential counter (Sinz 2005): auxiliary ``s[i][j]`` means "at
    least j of the first i+1 literals are true".
    """
    n = len(literals)
    if k < 0:
        # Impossible: force a contradiction.
        cnf.add_clause([])
        return
    if k == 0:
        for lit in literals:
            cnf.add_clause([-lit])
        return
    if n <= k:
        return  # trivially satisfied

    # s[i][j] for i in 0..n-1, j in 0..k-1 (j counts from zero).
    registers: List[List[int]] = [
        [cnf.new_var() for _ in range(k)] for _ in range(n)
    ]

    cnf.add_clause([-literals[0], registers[0][0]])
    for j in range(1, k):
        cnf.add_clause([-registers[0][j]])
    for i in range(1, n):
        cnf.add_clause([-literals[i], registers[i][0]])
        cnf.add_clause([-registers[i - 1][0], registers[i][0]])
        for j in range(1, k):
            cnf.add_clause([-literals[i], -registers[i - 1][j - 1], registers[i][j]])
            cnf.add_clause([-registers[i - 1][j], registers[i][j]])
        cnf.add_clause([-literals[i], -registers[i - 1][k - 1]])
