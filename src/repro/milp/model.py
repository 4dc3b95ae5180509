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
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union,
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
    variable exists exactly once per model); nothing mutates variables
    after construction.
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
    arrays plus per-row sense/rhs, instead of allocating one
    :class:`LinExpr` and :class:`Constraint` per row.  The SciPy/HiGHS
    backend consumes the triplets as CSR input directly; every other
    consumer (B&B, LP export, presolve, ``check_solution``) sees the
    rows through :meth:`to_constraints` / :meth:`Model.all_constraints`.

    ``rows`` holds *block-local* row ids in ``[0, num_rows)``.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    senses: List[Sense]
    rhs: np.ndarray
    name_prefix: str = ""

    @property
    def num_rows(self) -> int:
        return len(self.senses)

    def bounds(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-row ``(lower, upper)`` bounds in LinearConstraint form."""
        lower = np.full(self.num_rows, -np.inf)
        upper = np.full(self.num_rows, np.inf)
        for r, sense in enumerate(self.senses):
            if sense is Sense.LE:
                upper[r] = self.rhs[r]
            elif sense is Sense.GE:
                lower[r] = self.rhs[r]
            else:
                lower[r] = upper[r] = self.rhs[r]
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
                sense=self.senses[r],
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
        #: Column indices retired via :meth:`retire_variable` and
        #: available for reuse (see :meth:`_add_var`).  The set is
        #: authoritative; the list is a reuse-order stack that may hold
        #: stale entries (restored columns), skipped lazily on pop --
        #: retire/restore stay O(1) even with thousands of retired
        #: columns per warm delta.
        self._free: List[int] = []
        self._free_set: Set[int] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add_var(self, name: str, vtype: VarType, lb: float, ub: float) -> Variable:
        if not name:
            name = f"x{len(self.variables)}"
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        index = None
        while self._free:
            candidate = self._free.pop()
            if candidate in self._free_set:
                index = candidate
                break
        if index is not None:
            # Column reuse: a retired index is recycled for the new
            # variable.  The caller must have scrubbed the column
            # (:meth:`scrub_column`) -- stale coefficients would
            # otherwise constrain the recycled variable.
            self._free_set.discard(index)
            old = self.variables[index]
            self._names.pop(old.name, None)
            var = Variable(index, name, vtype, lb, ub)
            self.variables[index] = var
        else:
            var = Variable(len(self.variables), name, vtype, lb, ub)
            self.variables.append(var)
        self._names[name] = var
        return var

    def add_binary(self, name: str = "") -> Variable:
        return self._add_var(name, VarType.BINARY, 0.0, 1.0)

    def add_binaries(self, names: Iterable[str],
                     fresh: bool = False) -> List[Variable]:
        """Create many binary variables in one call.

        Semantically identical to repeated :meth:`add_binary`, but the
        bookkeeping (index assignment, name registration) runs batched
        -- the encoding hot path creates tens of thousands of placement
        variables and per-call overhead dominates otherwise.

        ``fresh=True`` guarantees brand-new columns even when the free
        list is non-empty -- required by callers (warm sessions) whose
        saved templates still reference retired columns by index.
        """
        names = list(names)
        if self._free_set and not fresh:
            # Retired columns get recycled first; the batched fast path
            # below assumes contiguous fresh indices.
            return [self._add_var(n, VarType.BINARY, 0.0, 1.0) for n in names]
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
        senses: Union[Sense, Sequence[Sense]],
        rhs: Sequence[float],
        name_prefix: str = "",
    ) -> LinearBlock:
        """Append a whole constraint family as COO triplets.

        ``rows`` are block-local ids starting at 0; ``senses`` is one
        :class:`Sense` applied to every row or a per-row sequence.  The
        triplets are handed to the sparse backend unchanged, skipping
        per-row :class:`LinExpr`/:class:`Constraint` allocation on the
        encoding hot path.
        """
        rhs_arr = np.asarray(rhs, dtype=np.float64)
        if isinstance(senses, Sense):
            sense_list = [senses] * len(rhs_arr)
        else:
            sense_list = list(senses)
        if len(sense_list) != len(rhs_arr):
            raise ValueError(
                f"{len(sense_list)} senses for {len(rhs_arr)} rows"
            )
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
        block = LinearBlock(rows_arr, cols_arr, data_arr, sense_list,
                            rhs_arr, name_prefix)
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------
    # In-place patching (warm-start sessions)
    # ------------------------------------------------------------------
    #
    # A persistent solver session evolves one live model across many
    # re-solves instead of re-encoding per request: right-hand sides and
    # variable bounds are patched, constraint rows are appended to or
    # replace a block wholesale, and columns are retired to a free list
    # and recycled.  Every method below preserves the invariant that the
    # patched model's canonical CSR form (:meth:`canonical_csr`) equals
    # the model one would build from scratch with the patched content --
    # the property the ``tests/milp/test_model_patch`` suite holds it to.

    def _block(self, block: Union[int, LinearBlock]) -> LinearBlock:
        if isinstance(block, LinearBlock):
            return block
        return self.blocks[block]

    def set_var_bounds(self, index: int, lb: float, ub: float) -> None:
        """Patch one variable's bounds in place (bound tightening).

        Tightening to an implied bound (e.g. ``ub=0`` for a binary on a
        switch with zero spare capacity) preserves the feasible set;
        the caller owns that argument -- the model just records it.
        """
        if lb > ub:
            raise ValueError(f"lb {lb} > ub {ub} for variable {index}")
        var = self.variables[index]
        var.lb = float(lb)
        var.ub = float(ub)

    def retire_variable(self, index: int) -> None:
        """Fix a variable to zero and put its column on the free list.

        The column's coefficients stay in place (a zero-fixed variable
        contributes nothing); recycling the index through
        :meth:`_add_var` requires a prior :meth:`scrub_column` so stale
        coefficients cannot constrain the new variable.
        """
        var = self.variables[index]
        var.lb = 0.0
        var.ub = 0.0
        if index not in self._free_set:
            self._free_set.add(index)
            self._free.append(index)

    def retire_variables(self, indices: Iterable[int]) -> None:
        """Bulk :meth:`retire_variable`.

        The warm-session retarget path flips thousands of columns per
        delta; one call with hoisted lookups keeps that linear in the
        flip count with a small constant.
        """
        variables = self.variables
        free_set = self._free_set
        push = self._free.append
        for index in indices:
            var = variables[index]
            var.lb = 0.0
            var.ub = 0.0
            if index not in free_set:
                free_set.add(index)
                push(index)

    def restore_variables(self, indices: Iterable[int], lb: float = 0.0,
                          ub: float = 1.0) -> None:
        """Bulk :meth:`restore_variable` with shared bounds."""
        if lb > ub:
            raise ValueError(f"lb {lb} > ub {ub}")
        lb, ub = float(lb), float(ub)
        variables = self.variables
        discard = self._free_set.discard
        for index in indices:
            var = variables[index]
            var.lb = lb
            var.ub = ub
            discard(index)

    def restore_variable(self, index: int, lb: float = 0.0,
                         ub: float = 1.0) -> None:
        """Reactivate a retired variable with the given bounds.

        The inverse of :meth:`retire_variable` for the same logical
        column: its coefficient entries were never removed, so
        restoring the bounds fully re-arms the original constraints.
        """
        self.set_var_bounds(index, lb, ub)
        # The stack entry (if any) goes stale and is skipped on pop.
        self._free_set.discard(index)

    def num_retired(self) -> int:
        return len(self._free_set)

    def scrub_column(self, index: int) -> None:
        """Zero every block coefficient of one column.

        Run before recycling a retired index for an unrelated variable;
        canonicalization drops the explicit zeros, so a scrubbed model
        matches a from-scratch build without the column's old entries.
        """
        for block in self.blocks:
            mask = block.cols == index
            if mask.any():
                block.data = np.where(mask, 0.0, block.data)
        if self.objective.coeffs.pop(index, None) is not None:
            pass

    def patch_linear_block(
        self,
        block: Union[int, LinearBlock],
        rows: Sequence[int],
        cols: Sequence[int],
        data: Sequence[float],
    ) -> LinearBlock:
        """Coefficient patch: set entries ``(row, col) -> value``.

        Any existing entries at a patched ``(row, col)`` position are
        replaced (not accumulated); new positions are appended.  Zero
        values effectively delete the entry -- canonical CSR drops
        explicit zeros, so patching to zero equals never emitting it.
        """
        target = self._block(block)
        rows_arr = np.asarray(rows, dtype=np.int64)
        cols_arr = np.asarray(cols, dtype=np.int64)
        data_arr = np.asarray(data, dtype=np.float64)
        if not (len(rows_arr) == len(cols_arr) == len(data_arr)):
            raise ValueError("rows/cols/data must be parallel arrays")
        if len(rows_arr) == 0:
            return target
        if rows_arr.min() < 0 or rows_arr.max() >= target.num_rows:
            raise ValueError("patch row id outside [0, num_rows)")
        if cols_arr.min() < 0 or cols_arr.max() >= len(self.variables):
            raise ValueError("patch column references unknown variable")
        # Zero out existing entries at the patched positions, then
        # append the non-zero replacements.
        width = len(self.variables)
        patched_keys = rows_arr * width + cols_arr
        # Set semantics within one call too: when a position appears
        # more than once, the last write wins.
        _, rev_first = np.unique(patched_keys[::-1], return_index=True)
        if len(rev_first) != len(patched_keys):
            keep_idx = np.sort(len(patched_keys) - 1 - rev_first)
            rows_arr = rows_arr[keep_idx]
            cols_arr = cols_arr[keep_idx]
            data_arr = data_arr[keep_idx]
            patched_keys = patched_keys[keep_idx]
        existing_keys = target.rows * width + target.cols
        hit = np.isin(existing_keys, patched_keys)
        if hit.any():
            target.data = np.where(hit, 0.0, target.data)
        keep = data_arr != 0.0
        if keep.any():
            target.rows = np.concatenate([target.rows, rows_arr[keep]])
            target.cols = np.concatenate([target.cols, cols_arr[keep]])
            target.data = np.concatenate([target.data, data_arr[keep]])
        return target

    def append_block_rows(
        self,
        block: Union[int, LinearBlock],
        rows: Sequence[int],
        cols: Sequence[int],
        data: Sequence[float],
        senses: Union[Sense, Sequence[Sense]],
        rhs: Sequence[float],
    ) -> LinearBlock:
        """Grow a block by whole rows; ``rows`` are ids local to the
        appended batch (0-based) and are shifted past the existing
        rows."""
        target = self._block(block)
        rhs_arr = np.asarray(rhs, dtype=np.float64)
        if isinstance(senses, Sense):
            sense_list = [senses] * len(rhs_arr)
        else:
            sense_list = list(senses)
        if len(sense_list) != len(rhs_arr):
            raise ValueError(f"{len(sense_list)} senses for {len(rhs_arr)} rows")
        rows_arr = np.asarray(rows, dtype=np.int64)
        cols_arr = np.asarray(cols, dtype=np.int64)
        data_arr = np.asarray(data, dtype=np.float64)
        if not (len(rows_arr) == len(cols_arr) == len(data_arr)):
            raise ValueError("rows/cols/data must be parallel arrays")
        if len(rows_arr) and (rows_arr.min() < 0
                              or rows_arr.max() >= len(rhs_arr)):
            raise ValueError("appended row id outside [0, num_new_rows)")
        if len(cols_arr) and (cols_arr.min() < 0
                              or cols_arr.max() >= len(self.variables)):
            raise ValueError("appended column references unknown variable")
        offset = target.num_rows
        target.rows = np.concatenate([target.rows, rows_arr + offset])
        target.cols = np.concatenate([target.cols, cols_arr])
        target.data = np.concatenate([target.data, data_arr])
        target.senses.extend(sense_list)
        target.rhs = np.concatenate([target.rhs, rhs_arr])
        return target

    def replace_block(
        self,
        block: Union[int, LinearBlock],
        rows: Sequence[int],
        cols: Sequence[int],
        data: Sequence[float],
        senses: Union[Sense, Sequence[Sense]],
        rhs: Sequence[float],
    ) -> LinearBlock:
        """Swap a block's entire contents (the structured form of a
        whole-family coefficient patch, e.g. new path rows on a
        reroute)."""
        target = self._block(block)
        rhs_arr = np.asarray(rhs, dtype=np.float64)
        if isinstance(senses, Sense):
            sense_list = [senses] * len(rhs_arr)
        else:
            sense_list = list(senses)
        if len(sense_list) != len(rhs_arr):
            raise ValueError(f"{len(sense_list)} senses for {len(rhs_arr)} rows")
        rows_arr = np.asarray(rows, dtype=np.int64)
        cols_arr = np.asarray(cols, dtype=np.int64)
        data_arr = np.asarray(data, dtype=np.float64)
        if not (len(rows_arr) == len(cols_arr) == len(data_arr)):
            raise ValueError("rows/cols/data must be parallel arrays")
        if len(rows_arr) and (rows_arr.min() < 0
                              or rows_arr.max() >= len(rhs_arr)):
            raise ValueError("block row id outside [0, num_rows)")
        if len(cols_arr) and (cols_arr.min() < 0
                              or cols_arr.max() >= len(self.variables)):
            raise ValueError("block column references unknown variable")
        target.rows = rows_arr
        target.cols = cols_arr
        target.data = data_arr
        target.senses = sense_list
        target.rhs = rhs_arr
        return target

    def set_block_rhs(
        self,
        block: Union[int, LinearBlock],
        rhs: Union[Mapping[int, float], Sequence[float], np.ndarray],
    ) -> LinearBlock:
        """Patch a block's right-hand sides: a full per-row vector or a
        sparse ``{row: value}`` mapping (RHS/bound patching -- e.g.
        capacity rows tracking spare capacity across deltas)."""
        target = self._block(block)
        if isinstance(rhs, Mapping):
            for row, value in rhs.items():
                if not 0 <= row < target.num_rows:
                    raise ValueError(f"rhs row {row} outside block")
                target.rhs[row] = float(value)
            return target
        rhs_arr = np.asarray(rhs, dtype=np.float64)
        if len(rhs_arr) != target.num_rows:
            raise ValueError(
                f"{len(rhs_arr)} rhs values for {target.num_rows} rows"
            )
        target.rhs = rhs_arr.copy()
        return target

    # ------------------------------------------------------------------
    # Canonical form and content digest
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

    def canonical_csr(self) -> Dict[str, np.ndarray]:
        """The model's rows (:meth:`coo`) in canonical CSR form.

        Per row, columns are sorted ascending, duplicate columns summed,
        and explicit zeros dropped; row bounds are :meth:`coo`'s.  Two
        models with the same mathematical content -- however they were
        built or patched -- produce identical arrays, which
        :meth:`content_digest` hashes.
        """
        all_rows, all_cols, all_data, row_lb, row_ub = self.coo()
        num_rows = len(row_lb)
        n = len(self.variables)
        # Canonicalize: sort by (row, col), merge duplicates, drop zeros.
        order = np.lexsort((all_cols, all_rows))
        all_rows, all_cols, all_data = (
            all_rows[order], all_cols[order], all_data[order]
        )
        if len(all_rows):
            keys = all_rows * max(n, 1) + all_cols
            boundary = np.empty(len(keys), dtype=bool)
            boundary[0] = True
            boundary[1:] = keys[1:] != keys[:-1]
            group = np.cumsum(boundary) - 1
            merged = np.bincount(group, weights=all_data)
            all_rows = all_rows[boundary]
            all_cols = all_cols[boundary]
            all_data = merged
            nz = all_data != 0.0
            all_rows, all_cols, all_data = (
                all_rows[nz], all_cols[nz], all_data[nz]
            )
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        if len(all_rows):
            np.cumsum(np.bincount(all_rows, minlength=num_rows),
                      out=indptr[1:])
        return {
            "indptr": indptr,
            "indices": all_cols,
            "data": all_data,
            "row_lb": row_lb,
            "row_ub": row_ub,
        }

    def content_digest(self) -> str:
        """Content fingerprint over the canonical model form.

        Covers variable types and bounds, the objective, and every row
        via :meth:`canonical_csr` -- but *not* variable names (the
        encoder assigns positional names nobody reads).  Warm-start
        sessions key epoch invalidation on this digest: a patched model
        and a from-scratch build of the same content agree.
        """
        from ..digest import canonical_digest

        csr = self.canonical_csr()
        vtypes = bytes(
            {"binary": 0, "integer": 1, "continuous": 2}[v.vtype.value]
            for v in self.variables
        )
        var_lb = np.array([v.lb for v in self.variables])
        var_ub = np.array([v.ub for v in self.variables])
        obj_items = sorted(
            (i, c) for i, c in self.objective.coeffs.items() if c != 0.0
        )
        obj_idx = np.array([i for i, _c in obj_items], dtype=np.int64)
        obj_coef = np.array([c for _i, c in obj_items], dtype=np.float64)

        def parts() -> Iterable[str]:
            yield f"vars:{len(self.variables)}"
            yield vtypes.hex()
            yield var_lb.tobytes().hex()
            yield var_ub.tobytes().hex()
            yield f"objconst:{self.objective.constant!r}"
            yield obj_idx.tobytes().hex()
            yield obj_coef.tobytes().hex()
            for key in ("indptr", "indices", "data", "row_lb", "row_ub"):
                yield f"{key}:" + csr[key].tobytes().hex()

        return canonical_digest(parts())

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
        individually (B&B, LP export, presolve, the exhaustive oracle)
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
