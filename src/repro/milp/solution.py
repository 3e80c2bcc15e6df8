"""Solution objects returned by the MILP backends."""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Mapping

from repro.milp.expr import Variable

#: Floor of :func:`relative_gap`'s denominator.
GAP_EPS = 1e-12


def relative_gap(objective: float, bound: float) -> float:
    """Relative optimality gap ``|objective - bound| / |objective|``.

    HiGHS's definition; the denominator is guarded by a tiny epsilon, so a
    zero objective with a zero bound reports 0.  Eq.-14 objectives are all
    below 1, which is why the denominator is not ``max(1, ...)``.
    """
    return abs(objective - bound) / max(abs(objective), GAP_EPS)


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # a feasible incumbent exists but optimality was not proven
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"  # stopped on the time limit with no incumbent
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether a usable variable assignment is attached to the result."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclasses.dataclass
class MILPSolution:
    """Result of solving a :class:`~repro.milp.model.Model`.

    Attributes
    ----------
    status:
        Solve outcome.
    objective:
        Objective value of the incumbent (``nan`` when no incumbent exists).
    values:
        Mapping ``Variable -> value`` for the incumbent.
    bound:
        Best dual bound proven by the solver (equals ``objective`` at optimality).
    solve_time:
        Wall-clock seconds spent inside the backend.
    node_count:
        Number of branch-and-bound nodes explored (0 when the backend does not
        report it).
    backend:
        Name of the backend that produced the result.
    message:
        Free-form backend status message.
    presolve_stats:
        :class:`~repro.milp.presolve.PresolveStats` of the presolve run that
        preceded the backend, or ``None`` when presolve was disabled.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Dict[Variable, float] = dataclasses.field(default_factory=dict)
    bound: float = float("nan")
    solve_time: float = 0.0
    node_count: int = 0
    backend: str = ""
    message: str = ""
    presolve_stats: object | None = None

    # ------------------------------------------------------------------
    def value(self, var: Variable, default: float | None = None) -> float:
        """Value of a variable in the incumbent (``default`` if missing)."""
        if var in self.values:
            return self.values[var]
        if default is not None:
            return default
        raise KeyError(f"no value for variable {var.name!r} in solution")

    def value_int(self, var: Variable) -> int:
        """Value of a variable rounded to the nearest integer."""
        return int(round(self.value(var)))

    def values_by_name(self) -> Mapping[str, float]:
        """Mapping ``variable name -> value`` (handy for serialization)."""
        return {var.name: val for var, val in self.values.items()}

    @property
    def gap(self) -> float:
        """:func:`relative_gap` of objective and bound (``inf`` if either is unknown)."""
        import math

        if math.isnan(self.objective) or math.isnan(self.bound):
            return float("inf")
        return relative_gap(self.objective, self.bound)

    def __bool__(self) -> bool:
        return self.status.has_solution
