"""SAT substrate: CNF, a from-scratch CDCL solver, and cardinality /
pseudo-Boolean encodings (the paper's Section IV-D engine)."""

from .cnf import CNF
from .cdcl import SatStatus, SatResult, CdclSolver, solve_cnf
from .card import at_most_k
from .pb import PBTerm, pb_le

__all__ = [
    "CNF",
    "SatStatus",
    "SatResult",
    "CdclSolver",
    "solve_cnf",
    "at_most_k",
    "PBTerm",
    "pb_le",
]
