"""Pseudo-Boolean linear constraints compiled to CNF via BDDs.

The paper suggests a Pseudo-Boolean solver [17] as one engine for the
satisfiability formulation.  Our CDCL core speaks CNF, so we provide
the classic BDD-based PB-to-CNF compilation (Eén & Sörensson, "Translating
Pseudo-Boolean Constraints into SAT"): a constraint
``sum(a_i * x_i) <= b`` over integer coefficients is turned into a
reduced ordered BDD whose nodes become fresh Tseitin variables.  For
monotone ``<=`` constraints the implication-only encoding is sound.

All rule-placement constraints are actually unit-coefficient, where the
sequential counter of :mod:`repro.sat.card` is preferred; the PB path
covers weighted extensions (e.g. weighted-switch objectives phrased as
constraints for binary-search optimization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .cnf import CNF

__all__ = ["PBTerm", "pb_le"]

# BDD leaves.
_TRUE = "T"
_FALSE = "F"
_NodeRef = Union[str, int]  # leaf sentinel or a CNF literal


@dataclass(frozen=True)
class PBTerm:
    """One ``coefficient * literal`` term of a PB constraint."""

    coeff: int
    literal: int


def _normalize(terms: Sequence[PBTerm], bound: int) -> Tuple[List[PBTerm], int]:
    """Flip negative coefficients onto negated literals.

    ``a*x`` with ``a < 0`` rewrites to ``|a| * (not x) + a`` so the
    bound shifts by ``a``; zero coefficients are dropped and duplicate
    literals merged.
    """
    merged: Dict[int, int] = {}
    for term in terms:
        coeff, lit = term.coeff, term.literal
        if lit == 0:
            raise ValueError("literal 0 is invalid")
        # Canonicalize to positive-literal keys by folding sign into coeff:
        # a * (-x) == -a * x + a  => bound -= a handled via negative branch.
        if lit < 0:
            # a * notx == a - a*x
            bound -= coeff
            coeff = -coeff
            lit = -lit
        merged[lit] = merged.get(lit, 0) + coeff
    normalized: List[PBTerm] = []
    for lit, coeff in merged.items():
        if coeff == 0:
            continue
        if coeff < 0:
            bound -= coeff
            normalized.append(PBTerm(-coeff, -lit))
        else:
            normalized.append(PBTerm(coeff, lit))
    normalized.sort(key=lambda t: -t.coeff)
    return normalized, bound


def _build_bdd(
    cnf: CNF,
    terms: List[PBTerm],
    suffix_sums: List[int],
    index: int,
    bound: int,
    memo: Dict[Tuple[int, int], _NodeRef],
) -> _NodeRef:
    if bound < 0:
        return _FALSE
    if suffix_sums[index] <= bound:
        return _TRUE
    # suffix_sums[index] > bound >= 0 implies index < len(terms).
    key = (index, bound)
    cached = memo.get(key)
    if cached is not None:
        return cached
    term = terms[index]
    hi = _build_bdd(cnf, terms, suffix_sums, index + 1, bound - term.coeff, memo)
    lo = _build_bdd(cnf, terms, suffix_sums, index + 1, bound, memo)
    if hi == lo:
        memo[key] = hi
        return hi
    node = cnf.new_var()
    # Implication-only (monotone) encoding:
    #   node -> (x -> hi) and node -> (!x -> lo)
    if hi == _FALSE:
        cnf.add_clause([-node, -term.literal])
    elif hi != _TRUE:
        cnf.add_clause([-node, -term.literal, hi])
    if lo == _FALSE:
        cnf.add_clause([-node, term.literal])
    elif lo != _TRUE:
        cnf.add_clause([-node, term.literal, lo])
    memo[key] = node
    return node


def pb_le(cnf: CNF, terms: Sequence[PBTerm], bound: int) -> None:
    """Add clauses enforcing ``sum(coeff * lit) <= bound``."""
    normalized, bound = _normalize(terms, bound)
    total = sum(t.coeff for t in normalized)
    if bound < 0:
        cnf.add_clause([])
        return
    if total <= bound:
        return
    suffix = [0] * (len(normalized) + 1)
    for i in range(len(normalized) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + normalized[i].coeff
    root = _build_bdd(cnf, normalized, suffix, 0, bound, {})
    if root == _FALSE:
        cnf.add_clause([])
    elif root != _TRUE:
        cnf.add_clause([root])
