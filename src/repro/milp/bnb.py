"""From-scratch branch-and-bound MILP solver over an LP relaxation.

This backend exists to show the reproduction does not *depend* on any
packaged MILP solver: only an LP oracle (``scipy.optimize.linprog``,
which is plain simplex/IPM) is needed.  It implements:

* best-bound node selection (priority queue on the LP bound),
* most-fractional branching with a simple tie-break on objective
  coefficient magnitude,
* an LP-rounding primal heuristic at every node to find incumbents
  early, and
* incumbent-based pruning with an integrality tolerance.

It is exact -- given enough time it returns OPTIMAL or INFEASIBLE -- but
of course slower than HiGHS; the backend-agreement benchmarks
(``benchmarks/test_ablation_backends.py``) quantify the gap.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from .model import Model, Sense, SolveResult, SolveStatus, VarType

__all__ = ["BranchAndBoundBackend"]

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    fixed: Dict[int, Tuple[float, float]] = field(compare=False)


class BranchAndBoundBackend:
    """Exact MILP via branch & bound on the LP relaxation.

    ``clock`` is injectable so the timeout path is deterministically
    testable (the regression tests feed a fake clock that "expires"
    after the first node).
    """

    name = "bnb"

    def __init__(self, time_limit: Optional[float] = None,
                 max_nodes: int = 200_000,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.time_limit = time_limit
        self.max_nodes = max_nodes
        self.clock = clock

    # ------------------------------------------------------------------

    def solve(self, model: Model,
              time_limit: Optional[float] = None) -> SolveResult:
        started = self.clock()
        limit = time_limit if time_limit is not None else self.time_limit
        n = model.num_variables()
        if n == 0:
            return SolveResult(SolveStatus.OPTIMAL, model.objective.constant, {}, 0.0)

        matrices = self._build_matrices(model)
        int_vars = [
            v.index for v in model.variables if v.vtype is not VarType.CONTINUOUS
        ]

        best_obj = math.inf
        best_x: Optional[np.ndarray] = None
        nodes_explored = 0
        seq = itertools.count()

        root = _Node(-math.inf, next(seq), {})
        heap: List[_Node] = [root]

        timed_out = False
        while heap:
            if limit is not None and self.clock() - started > limit:
                timed_out = True
                break
            if nodes_explored >= self.max_nodes:
                break
            node = heapq.heappop(heap)
            if node.bound >= best_obj - 1e-9:
                continue  # cannot improve the incumbent
            nodes_explored += 1

            lp = self._solve_lp(model, matrices, node.fixed)
            if lp is None:
                continue  # LP infeasible: prune
            lp_obj, x = lp
            if lp_obj >= best_obj - 1e-9:
                continue

            frac_var = self._most_fractional(x, int_vars)
            if frac_var is None:
                # Integral LP optimum: new incumbent.
                if lp_obj < best_obj:
                    best_obj, best_x = lp_obj, x
                continue

            # Primal heuristic: round and check feasibility.
            rounded = self._rounding_heuristic(model, x, int_vars)
            if rounded is not None:
                r_obj, r_x = rounded
                if r_obj < best_obj:
                    best_obj, best_x = r_obj, r_x

            val = x[frac_var]
            floor_fix = dict(node.fixed)
            lo, hi = floor_fix.get(
                frac_var,
                (model.variables[frac_var].lb, model.variables[frac_var].ub),
            )
            floor_fix[frac_var] = (lo, math.floor(val))
            ceil_fix = dict(node.fixed)
            ceil_fix[frac_var] = (math.ceil(val), hi)
            for fixed in (floor_fix, ceil_fix):
                lo2, hi2 = fixed[frac_var]
                if lo2 <= hi2:
                    heapq.heappush(heap, _Node(lp_obj, next(seq), fixed))

        elapsed = self.clock() - started
        exhausted = not heap and not timed_out and nodes_explored < self.max_nodes
        stats = {"nodes": float(nodes_explored)}
        if heap:
            # Honest dual bound: the best open node (capped by the
            # incumbent, shifted to match the reported objective frame).
            bound = min(min(node.bound for node in heap), best_obj)
            if math.isfinite(bound):
                stats["bound"] = bound + model.objective.constant
        if best_x is None:
            if exhausted:
                return SolveResult(SolveStatus.INFEASIBLE, None, {}, elapsed, stats)
            return SolveResult(SolveStatus.TIME_LIMIT, None, {}, elapsed, stats)
        values = {i: float(round(best_x[i]) if i in set(int_vars) else best_x[i])
                  for i in range(n)}
        objective = best_obj + model.objective.constant
        if exhausted:
            status = SolveStatus.OPTIMAL
        elif timed_out:
            # Wall clock expired: return the incumbent honestly, with
            # the remaining optimality gap in the stats.
            status = SolveStatus.TIME_LIMIT
            if "bound" in stats and objective:
                stats["gap"] = abs(objective - stats["bound"]) / max(
                    abs(objective), 1e-9
                )
        else:
            status = SolveStatus.FEASIBLE  # node budget, not time
        return SolveResult(status, objective, values, elapsed, stats)

    # ------------------------------------------------------------------
    # LP machinery
    # ------------------------------------------------------------------

    def _build_matrices(self, model: Model):
        """Split rows into A_ub x <= b_ub and A_eq x == b_eq (dense;
        instances routed to this backend are small)."""
        n = model.num_variables()
        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for con in model.all_constraints():
            row = np.zeros(n)
            for idx, coeff in con.expr.coeffs.items():
                row[idx] = coeff
            if con.sense is Sense.LE:
                ub_rows.append(row)
                ub_rhs.append(con.rhs)
            elif con.sense is Sense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-con.rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(con.rhs)
        c = np.zeros(n)
        for idx, coeff in model.objective.coeffs.items():
            c[idx] = coeff
        a_ub = np.vstack(ub_rows) if ub_rows else None
        b_ub = np.array(ub_rhs) if ub_rhs else None
        a_eq = np.vstack(eq_rows) if eq_rows else None
        b_eq = np.array(eq_rhs) if eq_rhs else None
        return c, a_ub, b_ub, a_eq, b_eq

    def _solve_lp(self, model: Model, matrices, fixed) -> Optional[Tuple[float, np.ndarray]]:
        c, a_ub, b_ub, a_eq, b_eq = matrices
        bounds = []
        for var in model.variables:
            lo, hi = fixed.get(var.index, (var.lb, var.ub))
            bounds.append((lo, None if math.isinf(hi) else hi))
        result = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=bounds, method="highs",
        )
        if not result.success:
            return None
        return float(result.fun), np.asarray(result.x)

    # ------------------------------------------------------------------

    @staticmethod
    def _most_fractional(x: np.ndarray, int_vars: List[int]) -> Optional[int]:
        best_idx, best_frac = None, _INT_TOL
        for idx in int_vars:
            frac = abs(x[idx] - round(x[idx]))
            if frac > best_frac:
                best_idx, best_frac = idx, frac
        return best_idx

    def _rounding_heuristic(self, model: Model, x: np.ndarray,
                            int_vars: List[int]) -> Optional[Tuple[float, np.ndarray]]:
        """Round the relaxation and accept only if genuinely feasible."""
        candidate = x.copy()
        for idx in int_vars:
            candidate[idx] = round(candidate[idx])
        values = {i: float(candidate[i]) for i in range(len(candidate))}
        if not model.check_solution(values):
            return None
        obj = sum(
            coeff * values.get(idx, 0.0)
            for idx, coeff in model.objective.coeffs.items()
        )
        return obj, candidate
