"""HiGHS-backed MILP solving via ``scipy.optimize.milp``.

This is the repository's stand-in for the paper's CPLEX: an exact
branch-and-cut MILP solver.  The backend converts a
:class:`~repro.milp.model.Model` into the sparse matrix form SciPy
expects and maps HiGHS statuses back onto :class:`SolveStatus`.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import Model, SolveResult, SolveStatus, VarType

__all__ = ["ScipyMilpBackend"]

# scipy.optimize.milp status codes (see its docs):
# 0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded, 4 other.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


class ScipyMilpBackend:
    """Exact MILP solving through SciPy's HiGHS bindings."""

    name = "scipy-highs"

    def __init__(self, time_limit: Optional[float] = None,
                 mip_rel_gap: float = 0.0) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap

    def solve(self, model: Model,
              time_limit: Optional[float] = None) -> SolveResult:
        started = time.perf_counter()
        n = model.num_variables()
        if n == 0:
            return SolveResult(SolveStatus.OPTIMAL, objective=model.objective.constant,
                               values={}, solve_seconds=0.0)

        c = np.zeros(n)
        for idx, coeff in model.objective.coeffs.items():
            c[idx] = coeff

        lb = np.array([v.lb for v in model.variables])
        ub = np.array([v.ub for v in model.variables])
        integrality = np.array([
            0 if v.vtype is VarType.CONTINUOUS else 1 for v in model.variables
        ])

        constraints = []
        if model.num_constraints():
            rows, cols, data, row_lb, row_ub = model.coo()
            matrix = sparse.csr_matrix(
                (data, (rows, cols)), shape=(len(row_lb), n)
            )
            constraints.append(LinearConstraint(matrix, row_lb, row_ub))

        options: dict = {"mip_rel_gap": self.mip_rel_gap}
        limit = time_limit if time_limit is not None else self.time_limit
        if limit is not None:
            options["time_limit"] = limit

        result = milp(
            c,
            constraints=constraints,
            bounds=Bounds(lb, ub),
            integrality=integrality,
            options=options,
        )
        elapsed = time.perf_counter() - started

        status = _STATUS_MAP.get(result.status)
        if status is None:
            if result.status == 1:
                # Iteration/time limit: TIME_LIMIT either way, with the
                # incumbent attached when HiGHS found one.
                status = SolveStatus.TIME_LIMIT
            else:
                # "Other" (4): feasible iff x is present.
                status = (
                    SolveStatus.FEASIBLE if result.x is not None
                    else SolveStatus.ERROR
                )
        values = {}
        objective = None
        if result.x is not None:
            values = {i: float(x) for i, x in enumerate(result.x)}
            objective = float(result.fun) + model.objective.constant
        stats = {}
        if getattr(result, "mip_node_count", None) is not None:
            stats["nodes"] = float(result.mip_node_count)
        if getattr(result, "mip_gap", None) is not None:
            stats["gap"] = float(result.mip_gap)
        return SolveResult(status, objective, values, elapsed, stats)
