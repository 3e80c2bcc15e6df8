"""The MILP model container.

A :class:`Model` owns variables and constraints and knows how to lower itself
into the matrix form consumed by the solver backends:

``minimize   c @ x``
``subject to A_lb <= A @ x <= A_ub,  lb <= x <= ub,  x_i integer for i in I``

The lowering uses :mod:`scipy.sparse` so that models with tens of thousands of
constraint coefficients (typical for the SDR2/SDR3 instances) are built in
milliseconds rather than seconds.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence

import numpy as np
from scipy import sparse

from repro.milp.constraint import Constraint, Sense
from repro.milp.expr import ExprLike, LinExpr, Variable, VarType, as_expr


@dataclasses.dataclass(frozen=True)
class ModelStats:
    """Structural statistics of a model (useful in benchmarks and reports)."""

    num_variables: int
    num_binary: int
    num_integer: int
    num_continuous: int
    num_constraints: int
    num_nonzeros: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.num_variables} vars "
            f"({self.num_binary} bin, {self.num_integer} int, {self.num_continuous} cont), "
            f"{self.num_constraints} constraints, {self.num_nonzeros} nonzeros"
        )


@dataclasses.dataclass
class MatrixForm:
    """Dense-vector / sparse-matrix lowering of a model.

    ``constraint_matrix`` is a ``scipy.sparse.csr_matrix``, the form both
    backends consume.
    """

    objective: np.ndarray
    constraint_matrix: sparse.csr_matrix
    constraint_lb: np.ndarray
    constraint_ub: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    integrality: np.ndarray
    variables: List[Variable]

    @property
    def num_constraints(self) -> int:
        """Number of constraint rows."""
        return int(self.constraint_matrix.shape[0])

    @property
    def num_variables(self) -> int:
        """Number of variable columns."""
        return len(self.variables)


class Model:
    """A mixed-integer linear program under construction.

    Typical usage::

        m = Model("floorplan")
        x = m.add_var("x", VarType.INTEGER, lb=1, ub=10)
        y = m.add_var("y", VarType.BINARY)
        m.add(x + 3 * y <= 7, name="cap")
        m.minimize(x - y)
        solution = repro.milp.solve(m)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._sense_minimize = True
        self._names: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        vtype: VarType = VarType.CONTINUOUS,
        lb: float | None = 0.0,
        ub: float | None = None,
    ) -> Variable:
        """Create a variable and register it with the model.

        Names must be unique; a duplicate name raises ``ValueError`` because
        silently deduplicating has historically hidden indexing bugs in
        floorplanning models.
        """
        if name in self._names:
            raise ValueError(f"variable name {name!r} already used")
        var = Variable(name, index=len(self._variables), vtype=vtype, lb=lb, ub=ub)
        self._variables.append(var)
        self._names[name] = var.index
        return var

    def add_binary(self, name: str) -> Variable:
        """Shorthand for ``add_var(name, VarType.BINARY)``."""
        return self.add_var(name, VarType.BINARY)

    def add_integer(self, name: str, lb: float = 0.0, ub: float | None = None) -> Variable:
        """Shorthand for an integer variable with the given bounds."""
        return self.add_var(name, VarType.INTEGER, lb=lb, ub=ub)

    def add_continuous(self, name: str, lb: float | None = 0.0, ub: float | None = None) -> Variable:
        """Shorthand for a continuous variable with the given bounds."""
        return self.add_var(name, VarType.CONTINUOUS, lb=lb, ub=ub)

    @property
    def variables(self) -> Sequence[Variable]:
        """Variables in insertion order (index order)."""
        return tuple(self._variables)

    def variable_by_name(self, name: str) -> Variable:
        """Look a variable up by its unique name."""
        return self._variables[self._names[name]]

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------
    def add(self, constraint: Constraint, name: str | None = None) -> Constraint:
        """Register a constraint (optionally overriding its name)."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "Model.add expects a Constraint; build one with <=, >= or == on expressions"
            )
        if name is not None:
            constraint.name = name
        elif constraint.name is None:
            constraint.name = f"c{len(self._constraints)}"
        self._constraints.append(constraint)
        return constraint

    def add_terms(
        self,
        terms: Dict[Variable, float],
        sense: Sense,
        rhs: float,
        name: str,
    ) -> Constraint:
        """Fast-path constraint registration from a coefficient dict.

        Equivalent to ``self.add(LinExpr(terms) <sense> rhs, name=name)`` but
        skips the operator-overloading churn (three intermediate ``LinExpr``
        allocations per constraint) — the difference is measurable when the
        floorplanning builder emits tens of thousands of constraints.  The
        dict is copied, so callers may reuse a template.
        """
        constraint = Constraint(LinExpr(terms, -float(rhs)), sense, name=name)
        self._constraints.append(constraint)
        return constraint

    def add_le_terms(self, terms: Dict[Variable, float], rhs: float, name: str) -> Constraint:
        """``sum(terms) <= rhs`` without building intermediate expressions."""
        return self.add_terms(terms, Sense.LE, rhs, name)

    def add_ge_terms(self, terms: Dict[Variable, float], rhs: float, name: str) -> Constraint:
        """``sum(terms) >= rhs`` without building intermediate expressions."""
        return self.add_terms(terms, Sense.GE, rhs, name)

    def add_eq_terms(self, terms: Dict[Variable, float], rhs: float, name: str) -> Constraint:
        """``sum(terms) == rhs`` without building intermediate expressions."""
        return self.add_terms(terms, Sense.EQ, rhs, name)

    @property
    def constraints(self) -> Sequence[Constraint]:
        """Constraints in insertion order."""
        return tuple(self._constraints)

    # ------------------------------------------------------------------
    # objective
    # ------------------------------------------------------------------
    def minimize(self, expr: ExprLike) -> None:
        """Set a minimization objective."""
        self._objective = as_expr(expr).copy()
        self._sense_minimize = True

    def maximize(self, expr: ExprLike) -> None:
        """Set a maximization objective (stored internally as minimization)."""
        self._objective = as_expr(expr).copy()
        self._sense_minimize = False

    @property
    def objective(self) -> LinExpr:
        """The objective expression as given by the user."""
        return self._objective

    @property
    def is_minimization(self) -> bool:
        """True when the stored objective should be minimized."""
        return self._sense_minimize

    def objective_value(self, values: Dict[Variable, float]) -> float:
        """Evaluate the user-facing objective under an assignment."""
        return self._objective.evaluate(values)

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def stats(self) -> ModelStats:
        """Structural statistics for reporting."""
        num_bin = sum(1 for v in self._variables if v.vtype is VarType.BINARY)
        num_int = sum(1 for v in self._variables if v.vtype is VarType.INTEGER)
        num_cont = len(self._variables) - num_bin - num_int
        nnz = sum(len(c.lhs.terms) for c in self._constraints)
        return ModelStats(
            num_variables=len(self._variables),
            num_binary=num_bin,
            num_integer=num_int,
            num_continuous=num_cont,
            num_constraints=len(self._constraints),
            num_nonzeros=nnz,
        )

    def _constraint_bounds(self) -> tuple:
        """Row activity bounds ``(lb, ub)`` of the lowered constraints."""
        lbs = np.empty(len(self._constraints))
        ubs = np.empty(len(self._constraints))
        for i, constraint in enumerate(self._constraints):
            rhs = constraint.rhs
            if constraint.sense is Sense.LE:
                lbs[i], ubs[i] = -np.inf, rhs
            elif constraint.sense is Sense.GE:
                lbs[i], ubs[i] = rhs, np.inf
            else:
                lbs[i], ubs[i] = rhs, rhs
        return lbs, ubs

    def _variable_arrays(self) -> tuple:
        """Variable bound/integrality arrays of the lowered model."""
        var_lb = np.array([v.lb for v in self._variables])
        var_ub = np.array([v.ub for v in self._variables])
        integrality = np.array(
            [1 if v.is_integral else 0 for v in self._variables], dtype=int
        )
        return var_lb, var_ub, integrality

    def to_matrix_form(self) -> MatrixForm:
        """Lower the model into matrix form for the backends.

        The constraint matrix is a :class:`scipy.sparse.csr_matrix` — the form
        both backends consume.
        """
        nvars = len(self._variables)
        objective = np.zeros(nvars)
        sign = 1.0 if self._sense_minimize else -1.0
        for var, coef in self._objective.terms.items():
            objective[var.index] += sign * coef

        lbs, ubs = self._constraint_bounds()
        var_lb, var_ub, integrality = self._variable_arrays()

        # pre-size the coefficient arrays: counting first avoids the list
        # append/convert churn on models with tens of thousands of nonzeros
        nnz = 0
        for constraint in self._constraints:
            for coef in constraint.lhs.terms.values():
                if coef != 0.0:
                    nnz += 1
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        cursor = 0
        for i, constraint in enumerate(self._constraints):
            for var, coef in constraint.lhs.terms.items():
                if coef != 0.0:
                    rows[cursor] = i
                    cols[cursor] = var.index
                    data[cursor] = coef
                    cursor += 1
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(self._constraints), nvars)
        )

        return MatrixForm(
            objective=objective,
            constraint_matrix=matrix,
            constraint_lb=lbs,
            constraint_ub=ubs,
            var_lb=var_lb,
            var_ub=var_ub,
            integrality=integrality,
            variables=list(self._variables),
        )

    # ------------------------------------------------------------------
    # validation / export
    # ------------------------------------------------------------------
    def check_assignment(
        self, values: Dict[Variable, float], tol: float = 1e-6
    ) -> List[Constraint]:
        """Return the constraints violated by ``values`` (empty == feasible)."""
        violated = []
        for constraint in self._constraints:
            if not constraint.is_satisfied(values, tol):
                violated.append(constraint)
        for var in self._variables:
            value = values[var]
            if value < var.lb - tol or value > var.ub + tol:
                violated.append(Constraint(LinExpr({var: 1.0}, 0.0), Sense.LE, name=f"bound[{var.name}]"))
            elif var.is_integral and abs(value - round(value)) > tol:
                violated.append(Constraint(LinExpr({var: 1.0}, 0.0), Sense.EQ, name=f"integrality[{var.name}]"))
        return violated

    def to_lp_string(self, max_constraints: int | None = None) -> str:
        """Export a CPLEX-LP-like textual representation (for debugging)."""
        lines = ["\\ model " + self.name, "Minimize" if self._sense_minimize else "Maximize"]
        lines.append(" obj: " + _format_expr(self._objective))
        lines.append("Subject To")
        constraints = self._constraints
        if max_constraints is not None:
            constraints = constraints[:max_constraints]
        for constraint in constraints:
            op = {"<=": "<=", ">=": ">=", "==": "="}[constraint.sense.value]
            lines.append(
                f" {constraint.name}: "
                + _format_expr(LinExpr(constraint.lhs.terms, 0.0))
                + f" {op} {constraint.rhs:g}"
            )
        lines.append("Bounds")
        for var in self._variables:
            lb = "-inf" if math.isinf(var.lb) else f"{var.lb:g}"
            ub = "+inf" if math.isinf(var.ub) else f"{var.ub:g}"
            lines.append(f" {lb} <= {var.name} <= {ub}")
        integers = [v.name for v in self._variables if v.vtype is VarType.INTEGER]
        binaries = [v.name for v in self._variables if v.vtype is VarType.BINARY]
        if integers:
            lines.append("General")
            lines.append(" " + " ".join(integers))
        if binaries:
            lines.append("Binary")
            lines.append(" " + " ".join(binaries))
        lines.append("End")
        return "\n".join(lines)


def _format_expr(expr: LinExpr) -> str:
    parts = []
    for var, coef in sorted(expr.terms.items(), key=lambda kv: kv[0].index):
        if coef == 0:
            continue
        parts.append(f"{coef:+g} {var.name}")
    if expr.constant:
        parts.append(f"{expr.constant:+g}")
    return " ".join(parts) if parts else "0"
