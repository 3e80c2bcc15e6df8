"""Affine expressions over decision variables.

The modelling layer is intentionally small: variables, affine expressions and
the arithmetic needed to write constraints the way the paper writes them,
e.g. ``model.add(h[c] == h[n])`` or
``model.add(o[c, pc] + o[n, pn] + k[n, pi] <= 2 + v[c])``.

Expressions are immutable-ish (arithmetic returns new objects) but use a plain
dict of ``variable -> coefficient`` internally so that building models with
tens of thousands of terms stays cheap.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, Mapping, Union

Number = Union[int, float]


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Variable:
    """A single decision variable.

    Variables are created through :meth:`repro.milp.model.Model.add_var`; the
    constructor is public only to keep the class easy to test in isolation.

    Parameters
    ----------
    name:
        Unique (per model) human-readable name, used in LP export and
        debugging output.
    index:
        Dense integer index assigned by the owning model.
    vtype:
        Variable domain (continuous, integer or binary).
    lb, ub:
        Lower / upper bounds.  ``None`` means unbounded in that direction
        (except for binaries, which are always in ``[0, 1]``).
    """

    __slots__ = ("name", "index", "vtype", "lb", "ub")

    def __init__(
        self,
        name: str,
        index: int,
        vtype: VarType = VarType.CONTINUOUS,
        lb: float | None = 0.0,
        ub: float | None = None,
    ) -> None:
        if vtype is VarType.BINARY:
            lb = 0.0 if lb is None else max(0.0, float(lb))
            ub = 1.0 if ub is None else min(1.0, float(ub))
        self.name = name
        self.index = index
        self.vtype = vtype
        self.lb = -math.inf if lb is None else float(lb)
        self.ub = math.inf if ub is None else float(ub)

    # -- arithmetic ---------------------------------------------------------
    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() + other

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() + other

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() - other

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        return (-self._as_expr()) + other

    def __mul__(self, coef: Number) -> "LinExpr":
        return self._as_expr() * coef

    def __rmul__(self, coef: Number) -> "LinExpr":
        return self._as_expr() * coef

    def __truediv__(self, denom: Number) -> "LinExpr":
        return self._as_expr() * (1.0 / float(denom))

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    # -- comparisons build constraints --------------------------------------
    def __le__(self, other: "ExprLike"):
        return self._as_expr() <= other

    def __ge__(self, other: "ExprLike"):
        return self._as_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self._as_expr() == other
        return NotImplemented

    # identity hash, kept in C: the builders hash every variable they put in a row
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, {self.vtype.value}, [{self.lb}, {self.ub}])"

    @property
    def is_integral(self) -> bool:
        """Whether the variable must take integer values."""
        return self.vtype in (VarType.INTEGER, VarType.BINARY)


class LinExpr:
    """An affine expression ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Variable, float] | None = None, constant: float = 0.0) -> None:
        self.terms: Dict[Variable, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def from_const(value: Number) -> "LinExpr":
        """Build a constant expression."""
        return LinExpr({}, float(value))

    def copy(self) -> "LinExpr":
        """Return an independent copy of this expression."""
        return LinExpr(dict(self.terms), self.constant)

    # -- in-place accumulation (used by quicksum for speed) ------------------
    def _iadd(self, other: "ExprLike", scale: float = 1.0) -> "LinExpr":
        if isinstance(other, (int, float)):
            self.constant += scale * float(other)
            return self
        if isinstance(other, Variable):
            self.terms[other] = self.terms.get(other, 0.0) + scale
            return self
        if isinstance(other, LinExpr):
            for var, coef in other.terms.items():
                self.terms[var] = self.terms.get(var, 0.0) + scale * coef
            self.constant += scale * other.constant
            return self
        raise TypeError(f"cannot add {type(other).__name__} to LinExpr")

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "ExprLike") -> "LinExpr":
        return self.copy()._iadd(other, 1.0)

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self.copy()._iadd(other, 1.0)

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self.copy()._iadd(other, -1.0)

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        result = self * -1.0
        return result._iadd(other, 1.0)

    def __mul__(self, coef: Number) -> "LinExpr":
        if not isinstance(coef, (int, float)):
            raise TypeError("LinExpr can only be multiplied by a scalar (the model is linear)")
        scaled = {var: c * float(coef) for var, c in self.terms.items()}
        return LinExpr(scaled, self.constant * float(coef))

    def __rmul__(self, coef: Number) -> "LinExpr":
        return self.__mul__(coef)

    def __truediv__(self, denom: Number) -> "LinExpr":
        return self.__mul__(1.0 / float(denom))

    def __neg__(self) -> "LinExpr":
        return self.__mul__(-1.0)

    # -- comparisons build constraints ---------------------------------------
    def __le__(self, other: "ExprLike"):
        from repro.milp.constraint import Constraint, Sense

        return Constraint(self - other, Sense.LE)

    def __ge__(self, other: "ExprLike"):
        from repro.milp.constraint import Constraint, Sense

        return Constraint(self - other, Sense.GE)

    def __eq__(self, other):  # type: ignore[override]
        from repro.milp.constraint import Constraint, Sense

        if isinstance(other, (Variable, LinExpr, int, float)):
            return Constraint(self - other, Sense.EQ)
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    # -- inspection -----------------------------------------------------------
    def coefficient(self, var: Variable) -> float:
        """Coefficient of ``var`` in this expression (0 if absent)."""
        return self.terms.get(var, 0.0)

    def variables(self) -> Iterable[Variable]:
        """Variables with a (possibly zero) stored coefficient."""
        return self.terms.keys()

    def evaluate(self, values: Mapping[Variable, float]) -> float:
        """Evaluate the expression under an assignment ``variable -> value``."""
        total = self.constant
        for var, coef in self.terms.items():
            total += coef * values[var]
        return total

    def is_constant(self, tol: float = 0.0) -> bool:
        """True if every stored coefficient is within ``tol`` of zero."""
        return all(abs(c) <= tol for c in self.terms.values())

    def __repr__(self) -> str:
        parts = []
        for var, coef in sorted(self.terms.items(), key=lambda kv: kv[0].index):
            if coef == 0:
                continue
            parts.append(f"{coef:+g}*{var.name}")
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


ExprLike = Union[Number, Variable, LinExpr]


def as_expr(value: ExprLike) -> LinExpr:
    """Coerce a number, variable or expression to a :class:`LinExpr`."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, Variable):
        return value._as_expr()
    if isinstance(value, (int, float)):
        return LinExpr.from_const(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a linear expression")


def quicksum(items: Iterable[ExprLike]) -> LinExpr:
    """Sum an iterable of expressions/variables/numbers efficiently.

    Equivalent to ``sum(items)`` but accumulates in place, avoiding the
    quadratic blow-up of repeated ``LinExpr.__add__`` copies when summing
    thousands of terms (which the floorplanning model does routinely).
    """
    total = LinExpr()
    for item in items:
        total._iadd(item, 1.0)
    return total
