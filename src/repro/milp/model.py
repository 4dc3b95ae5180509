"""A small mixed-integer linear programming modeling layer.

The paper solves its rule-placement formulation with CPLEX.  CPLEX is
proprietary; this package provides the modeling surface (variables,
linear expressions, constraints, a minimization objective) and pluggable
backends:

* :mod:`repro.milp.scipy_backend` -- HiGHS via ``scipy.optimize.milp``,
  the primary exact solver (our CPLEX stand-in);
* :mod:`repro.milp.bnb` -- a from-scratch branch-and-bound over the LP
  relaxation, demonstrating the full stack is reproducible without any
  bundled MILP solver;
* :mod:`repro.milp.exhaustive` -- brute force over binary assignments,
  the oracle used by the test suite.

All rule-placement constraints are pure 0/1 with integer coefficients,
so the layer only needs binary/integer variables and ``<=``, ``>=``,
``==`` rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

__all__ = [
    "VarType",
    "Variable",
    "LinExpr",
    "Sense",
    "Constraint",
    "LinearBlock",
    "SolveStatus",
    "SolveResult",
    "Model",
]

Number = Union[int, float]


class VarType(enum.Enum):
    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


@dataclass(eq=False)
class Variable:
    """A decision variable; identity is its ``index`` within the model.

    Deliberately *not* frozen: a frozen dataclass funnels every field
    through ``object.__setattr__`` during ``__init__``, which is the
    dominant cost when the encoder creates tens of thousands of
    variables.  ``eq=False`` keeps identity comparison/hashing (each
    variable exists exactly once per model).  Bounds are set at
    creation and the model has no API that changes them afterwards.
    """

    index: int
    name: str
    vtype: VarType
    lb: float
    ub: float

    # -- arithmetic sugar: variables promote to expressions ------------

    def to_expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0})

    def __add__(self, other) -> "LinExpr":
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self.to_expr() - other

    def __rsub__(self, other) -> "LinExpr":
        return (-1.0 * self.to_expr()) + other

    def __mul__(self, coeff: Number) -> "LinExpr":
        return self.to_expr() * coeff

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    def __le__(self, other) -> "Constraint":  # type: ignore[override]
        return self.to_expr() <= other

    def __ge__(self, other) -> "Constraint":  # type: ignore[override]
        return self.to_expr() >= other

    def eq(self, other) -> "Constraint":
        return self.to_expr().eq(other)


class LinExpr:
    """A linear expression ``sum(coeff_i * x_i) + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Optional[Mapping[int, float]] = None,
                 constant: float = 0.0) -> None:
        self.coeffs: Dict[int, float] = dict(coeffs or {})
        self.constant = float(constant)

    @staticmethod
    def _as_expr(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value.to_expr()
        if isinstance(value, (int, float)):
            return LinExpr(constant=float(value))
        raise TypeError(f"cannot treat {value!r} as a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.constant)

    def add_term(self, var: Variable, coeff: Number) -> "LinExpr":
        """In-place accumulation; returns self for chaining."""
        if coeff:
            self.coeffs[var.index] = self.coeffs.get(var.index, 0.0) + float(coeff)
            if self.coeffs[var.index] == 0.0:
                del self.coeffs[var.index]
        return self

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "LinExpr":
        rhs = self._as_expr(other)
        result = self.copy()
        for idx, coeff in rhs.coeffs.items():
            result.coeffs[idx] = result.coeffs.get(idx, 0.0) + coeff
            if result.coeffs[idx] == 0.0:
                del result.coeffs[idx]
        result.constant += rhs.constant
        return result

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (self._as_expr(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, coeff: Number) -> "LinExpr":
        if not isinstance(coeff, (int, float)):
            raise TypeError("expressions can only be scaled by numbers")
        return LinExpr(
            {idx: c * coeff for idx, c in self.coeffs.items() if c * coeff != 0.0},
            self.constant * coeff,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- relational operators build constraints --------------------------

    def __le__(self, other) -> "Constraint":
        return Constraint.build(self, Sense.LE, self._as_expr(other))

    def __ge__(self, other) -> "Constraint":
        return Constraint.build(self, Sense.GE, self._as_expr(other))

    def eq(self, other) -> "Constraint":
        """Equality constraint (named method: ``==`` keeps dataclass
        semantics for tests)."""
        return Constraint.build(self, Sense.EQ, self._as_expr(other))

    # -- evaluation -------------------------------------------------------

    def value(self, assignment: Mapping[int, float]) -> float:
        return self.constant + sum(
            coeff * assignment.get(idx, 0.0) for idx, coeff in self.coeffs.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coeffs.items()))
        if self.constant:
            terms = f"{terms} + {self.constant:g}" if terms else f"{self.constant:g}"
        return terms or "0"


def lin_sum(items: Iterable[Union[Variable, LinExpr]]) -> LinExpr:
    """Efficient sum of many variables/expressions (avoids quadratic
    rebuild that ``sum()`` over immutable adds would cost)."""
    total = LinExpr()
    for item in items:
        if isinstance(item, Variable):
            total.coeffs[item.index] = total.coeffs.get(item.index, 0.0) + 1.0
        else:
            for idx, coeff in item.coeffs.items():
                total.coeffs[idx] = total.coeffs.get(idx, 0.0) + coeff
            total.constant += item.constant
    total.coeffs = {i: c for i, c in total.coeffs.items() if c != 0.0}
    return total


class Sense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass
class Constraint:
    """A normalized row ``expr (<=|>=|==) rhs`` with ``expr`` constant-free."""

    expr: LinExpr
    sense: Sense
    rhs: float
    name: str = ""

    @classmethod
    def build(cls, lhs: LinExpr, sense: Sense, rhs: LinExpr) -> "Constraint":
        expr = lhs - rhs
        constant = expr.constant
        expr.constant = 0.0
        # `+ 0.0` normalizes -0.0 so rendered bounds read "0", not "-0".
        return cls(expr=expr, sense=sense, rhs=-constant + 0.0)

    def satisfied(self, assignment: Mapping[int, float], tol: float = 1e-6) -> bool:
        lhs = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return lhs <= self.rhs + tol
        if self.sense is Sense.GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass
class LinearBlock:
    """A family of constraint rows in COO-triplet form.

    The encoder (:func:`repro.core.ilp.build_encoding`) emits each
    constraint family -- dependency, path, capacity -- as three parallel
    arrays plus one sense and a per-row rhs, instead of allocating one
    :class:`LinExpr` and :class:`Constraint` per row.  The SciPy/HiGHS
    backend consumes the triplets as CSR input directly; every other
    consumer (B&B, LP export, ``check_solution``) sees the
    rows through :meth:`to_constraints` / :meth:`Model.all_constraints`.

    ``rows`` holds *block-local* row ids in ``[0, num_rows)``.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    sense: Sense
    rhs: np.ndarray
    name_prefix: str = ""

    @property
    def num_rows(self) -> int:
        return len(self.rhs)

    def bounds(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-row ``(lower, upper)`` bounds in LinearConstraint form."""
        n = self.num_rows
        lower = np.full(n, -np.inf) if self.sense is Sense.LE else self.rhs.copy()
        upper = np.full(n, np.inf) if self.sense is Sense.GE else self.rhs.copy()
        return lower, upper

    def to_constraints(self) -> List["Constraint"]:
        """Materialize the rows as ordinary :class:`Constraint` objects
        (the slow-path view for backends that walk rows one by one)."""
        coeffs: List[Dict[int, float]] = [{} for _ in range(self.num_rows)]
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(),
                           self.data.tolist()):
            coeffs[r][c] = coeffs[r].get(c, 0.0) + v
        prefix = self.name_prefix or "blk"
        return [
            Constraint(
                expr=LinExpr(coeffs[r]),
                sense=self.sense,
                rhs=float(self.rhs[r]),
                name=f"{prefix}[{r}]",
            )
            for r in range(self.num_rows)
        ]

    def satisfied(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Vectorized feasibility check of all rows against a dense
        assignment vector."""
        if self.num_rows == 0:
            return True
        lhs = np.bincount(
            self.rows, weights=self.data * x[self.cols], minlength=self.num_rows
        )
        lower, upper = self.bounds()
        return bool(np.all(lhs <= upper + tol) and np.all(lhs >= lower - tol))


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"          # incumbent found, stopped on a work budget
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"      # wall clock expired; incumbent may be attached
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveResult:
    """Outcome of a backend solve."""

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[int, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    #: Backend-specific counters (nodes explored, LP iterations, ...).
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def has_solution(self) -> bool:
        """True when the result carries a usable assignment -- including
        the best incumbent of a solve that hit its time limit."""
        return self.status.has_solution or (
            self.status is SolveStatus.TIME_LIMIT and self.objective is not None
        )

    def value(self, var: Variable) -> float:
        return self.values.get(var.index, 0.0)

    def int_value(self, var: Variable) -> int:
        return int(round(self.value(var)))

    def is_one(self, var: Variable, tol: float = 1e-4) -> bool:
        return self.value(var) > 1.0 - tol


class Model:
    """A minimization MILP under construction."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        #: Bulk constraint families (see :class:`LinearBlock`); rows
        #: live here *instead of* in ``constraints``, never in both.
        self.blocks: List[LinearBlock] = []
        self.objective: LinExpr = LinExpr()
        self._names: Dict[str, Variable] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add_var(self, name: str, vtype: VarType, lb: float, ub: float) -> Variable:
        if not name:
            name = f"x{len(self.variables)}"
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Variable(len(self.variables), name, vtype, lb, ub)
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_binary(self, name: str = "") -> Variable:
        return self._add_var(name, VarType.BINARY, 0.0, 1.0)

    def add_binaries(self, names: Iterable[str]) -> List[Variable]:
        """Create many binary variables in one call.

        Semantically identical to repeated :meth:`add_binary`, but the
        bookkeeping (index assignment, name registration) runs batched
        -- the encoding hot path creates tens of thousands of placement
        variables and per-call overhead dominates otherwise.
        """
        names = list(names)
        start = len(self.variables)
        new = [
            Variable(start + offset, name, VarType.BINARY, 0.0, 1.0)
            for offset, name in enumerate(names)
        ]
        if len(set(names)) != len(new) or not self._names.keys().isdisjoint(names):
            raise ValueError("duplicate variable name in batch")
        self.variables.extend(new)
        self._names.update(zip(names, new))
        return new

    def add_integer(self, name: str = "", lb: float = 0.0,
                    ub: float = float("inf")) -> Variable:
        return self._add_var(name, VarType.INTEGER, lb, ub)

    def add_continuous(self, name: str = "", lb: float = 0.0,
                       ub: float = float("inf")) -> Variable:
        return self._add_var(name, VarType.CONTINUOUS, lb, ub)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_linear_block(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        data: Sequence[float],
        sense: Sense,
        rhs: Sequence[float],
        name_prefix: str = "",
    ) -> LinearBlock:
        """Append a whole constraint family as COO triplets.

        ``rows`` are block-local ids starting at 0; ``sense`` applies to
        every row.  The triplets are handed to the sparse backend
        unchanged, skipping per-row :class:`LinExpr`/:class:`Constraint`
        allocation on the encoding hot path.
        """
        if not isinstance(sense, Sense):
            # A per-row list would read as neither LE nor GE in
            # bounds(), silently turning every row into an equality.
            raise ValueError(f"one Sense per block, not senses {sense!r}")
        rhs_arr = np.asarray(rhs, dtype=np.float64)
        rows_arr = np.asarray(rows, dtype=np.int64)
        cols_arr = np.asarray(cols, dtype=np.int64)
        data_arr = np.asarray(data, dtype=np.float64)
        if not (len(rows_arr) == len(cols_arr) == len(data_arr)):
            raise ValueError("rows/cols/data must be parallel arrays")
        if len(rows_arr) and (rows_arr.min() < 0 or rows_arr.max() >= len(rhs_arr)):
            raise ValueError("block row id outside [0, num_rows)")
        if len(cols_arr) and (cols_arr.min() < 0
                              or cols_arr.max() >= len(self.variables)):
            raise ValueError("block column references unknown variable")
        block = LinearBlock(rows_arr, cols_arr, data_arr, sense, rhs_arr,
                            name_prefix)
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------
    # Flat form
    # ------------------------------------------------------------------

    def coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                           np.ndarray, np.ndarray]:
        """Every row as COO triplets plus interval bounds.

        Returns ``(rows, cols, data, row_lb, row_ub)``: operator-API
        rows first, then block rows in block order, entries in emission
        order (unsorted, duplicates not merged).  Senses and right-hand
        sides become ``(lower, upper)`` row bounds.
        """
        row_parts: List[np.ndarray] = []
        col_parts: List[np.ndarray] = []
        data_parts: List[np.ndarray] = []
        lb_parts: List[np.ndarray] = []
        ub_parts: List[np.ndarray] = []
        n_op = len(self.constraints)
        if n_op:
            op_lb = np.empty(n_op)
            op_ub = np.empty(n_op)
            rows: List[int] = []
            cols: List[int] = []
            data: List[float] = []
            for r, con in enumerate(self.constraints):
                for idx, coeff in con.expr.coeffs.items():
                    rows.append(r)
                    cols.append(idx)
                    data.append(coeff)
                if con.sense is Sense.LE:
                    op_lb[r], op_ub[r] = -np.inf, con.rhs
                elif con.sense is Sense.GE:
                    op_lb[r], op_ub[r] = con.rhs, np.inf
                else:
                    op_lb[r] = op_ub[r] = con.rhs
            row_parts.append(np.asarray(rows, dtype=np.int64))
            col_parts.append(np.asarray(cols, dtype=np.int64))
            data_parts.append(np.asarray(data, dtype=np.float64))
            lb_parts.append(op_lb)
            ub_parts.append(op_ub)
        offset = n_op
        for block in self.blocks:
            row_parts.append(block.rows + offset)
            col_parts.append(block.cols)
            data_parts.append(block.data)
            lower, upper = block.bounds()
            lb_parts.append(lower)
            ub_parts.append(upper)
            offset += block.num_rows
        if not row_parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0), np.zeros(0), np.zeros(0)
        return (
            np.concatenate(row_parts),
            np.concatenate(col_parts),
            np.concatenate(data_parts),
            np.concatenate(lb_parts),
            np.concatenate(ub_parts),
        )

    def set_objective(self, expr: Union[LinExpr, Variable]) -> None:
        """Set the minimization objective."""
        self.objective = LinExpr._as_expr(expr).copy()

    def var_by_name(self, name: str) -> Variable:
        return self._names[name]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def num_variables(self) -> int:
        return len(self.variables)

    def num_constraints(self) -> int:
        return len(self.constraints) + sum(b.num_rows for b in self.blocks)

    def all_constraints(self) -> List[Constraint]:
        """Every row as a :class:`Constraint`: the operator-API rows
        followed by materialized block rows.  Backends that walk rows
        individually (B&B, LP export, the exhaustive oracle)
        use this; the sparse backend reads ``blocks`` directly."""
        if not self.blocks:
            return self.constraints
        rows = list(self.constraints)
        for block in self.blocks:
            rows.extend(block.to_constraints())
        return rows

    def is_pure_binary(self) -> bool:
        return all(v.vtype is VarType.BINARY for v in self.variables)

    def check_solution(self, values: Mapping[int, float], tol: float = 1e-6) -> bool:
        """Feasibility check of a full assignment against all rows."""
        for var in self.variables:
            val = values.get(var.index, 0.0)
            if val < var.lb - tol or val > var.ub + tol:
                return False
            if var.vtype is not VarType.CONTINUOUS and abs(val - round(val)) > tol:
                return False
        if not all(c.satisfied(values, tol) for c in self.constraints):
            return False
        if self.blocks:
            x = np.zeros(len(self.variables))
            for idx, val in values.items():
                if 0 <= idx < len(x):
                    x[idx] = val
            if not all(block.satisfied(x, tol) for block in self.blocks):
                return False
        return True

    def solve(self, backend: Optional["object"] = None, **kwargs) -> SolveResult:
        """Solve with the given backend (default: SciPy/HiGHS)."""
        if backend is None:
            from .scipy_backend import ScipyMilpBackend

            backend = ScipyMilpBackend()
        return backend.solve(self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Model({self.name!r}, {self.num_variables()} vars, "
            f"{self.num_constraints()} constraints)"
        )
