"""Solve facade dispatching between MILP backends.

Besides the user-facing :func:`solve`, this module owns the glue that both
backends used to duplicate:

* :func:`prepare_model` lowers a model to sparse matrix form and produces a
  :class:`PreparedModel` carrying that form and, for a model without
  variables, its shortcut solution;
* :func:`split_matrix_form` converts the two-sided ``lb <= A x <= ub`` row
  form into the ``A_ub/b_ub/A_eq/b_eq`` shape ``scipy.optimize.linprog``
  wants — computed once per solve instead of once per branch-and-bound node.

Both backends accept a ``prepared=`` argument so advanced callers (tests,
ablations) can lower once and solve the same prepared problem with
several backends; each backend copies any shortcut solution before stamping
it, so a shared :class:`PreparedModel` is safe to reuse.  The time-limit
budget always covers the preparation work, whoever triggered it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.milp.expr import Variable
from repro.milp.model import MatrixForm, Model
from repro.milp.solution import MILPSolution, SolveStatus
from repro.obs.trace import record_stage


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Options shared by all MILP backends.

    The dataclass is frozen so that option sets are hashable and can key
    caches (see :mod:`repro.service.jobs`); use :meth:`replace` to derive
    variants.

    Attributes
    ----------
    backend:
        ``"highs"`` (scipy/HiGHS branch-and-cut, default) or ``"branch-bound"``
        (pure-Python reference implementation).
    time_limit:
        Wall-clock limit in seconds, or ``None`` for no limit.  The budget
        covers matrix lowering, not just backend time.
    mip_gap:
        Relative optimality gap at which the solver may stop.
    max_nodes:
        Node budget for the branch-and-bound backend.
    verbose:
        Enable backend log output.
    presolve:
        Accepted and ignored: both backends solve the lowered model directly.
        The field stays because job fingerprints hash :meth:`as_dict`, so
        dropping it would change every fingerprint and orphan every cache
        entry.
    warm_start:
        Branch-and-bound only: pseudo-cost branching plus rounding/diving
        primal heuristics hot-started from parent-node LP solutions.
        Disabling reverts to textbook most-fractional branching.
    """

    backend: str = "highs"
    time_limit: float | None = None
    mip_gap: float | None = None
    max_nodes: int = 200_000
    verbose: bool = False
    presolve: bool = True
    warm_start: bool = True

    def replace(self, **changes) -> "SolverOptions":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (stable key order)."""
        return {
            "backend": self.backend,
            "time_limit": self.time_limit,
            "mip_gap": self.mip_gap,
            "max_nodes": self.max_nodes,
            "verbose": self.verbose,
            "presolve": self.presolve,
            "warm_start": self.warm_start,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolverOptions":
        """Rebuild options from :meth:`as_dict` output."""
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


# ----------------------------------------------------------------------
# shared backend glue
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SplitForm:
    """``linprog``-shaped constraint data derived from a :class:`MatrixForm`.

    Rows with a finite upper bound contribute to ``A_ub``, rows with a finite
    lower bound contribute negated, and two-sided-equal rows become ``A_eq``.
    """

    a_ub: Optional[sparse.csr_matrix]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[sparse.csr_matrix]
    b_eq: Optional[np.ndarray]


def split_matrix_form(form: MatrixForm) -> SplitForm:
    """Split two-sided rows into the inequality/equality blocks once."""
    matrix = form.constraint_matrix
    lb = form.constraint_lb
    ub = form.constraint_ub
    finite_ub = np.isfinite(ub)
    finite_lb = np.isfinite(lb)
    equality = finite_lb & finite_ub & (np.abs(ub - lb) < 1e-12)
    ineq_ub = finite_ub & ~equality
    ineq_lb = finite_lb & ~equality

    a_ub_parts = []
    b_ub_parts = []
    if np.any(ineq_ub):
        a_ub_parts.append(matrix[ineq_ub])
        b_ub_parts.append(ub[ineq_ub])
    if np.any(ineq_lb):
        a_ub_parts.append(-matrix[ineq_lb])
        b_ub_parts.append(-lb[ineq_lb])

    a_ub = sparse.vstack(a_ub_parts) if a_ub_parts else None
    b_ub = np.concatenate(b_ub_parts) if b_ub_parts else None
    a_eq = matrix[equality] if np.any(equality) else None
    b_eq = lb[equality] if np.any(equality) else None
    return SplitForm(a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


@dataclasses.dataclass
class PreparedModel:
    """Everything a backend needs, built once by :func:`prepare_model`.

    ``shortcut`` is a complete :class:`MILPSolution` when preparation already
    decided the model (a model without variables); backends must return it
    directly after stamping their name and their solve time.
    """

    model: Model
    form: MatrixForm
    shortcut: Optional[MILPSolution] = None
    # always None; read by perfbench/layers.py's solver_stages
    stats = None

    # ------------------------------------------------------------------
    def restore_values(self, x: np.ndarray) -> Dict[Variable, float]:
        """Map a backend solution on ``form`` to the model's variables."""
        values = {}
        for var, val in zip(self.form.variables, x):
            values[var] = float(round(val)) if var.is_integral else float(val)
        return values

    def user_bound(self, internal_bound: float) -> float:
        """Internal (minimize-sense) bound -> user-facing objective sense.

        Re-applies the objective constant the matrix lowering drops, so the
        returned bound is comparable to ``MILPSolution.objective`` and the
        ``gap`` property is meaningful.
        """
        constant = self.model.objective.constant
        if self.model.is_minimization:
            return constant + float(internal_bound)
        return constant - float(internal_bound)


def prepare_model(
    model: Model,
    # ignored; passed by perfbench/layers.py's solver_stages
    run_presolve: bool = True,
    backend: str = "",
) -> PreparedModel:
    """Lower ``model`` to matrix form; shared entry point of both backends."""
    start = time.perf_counter()
    form = model.to_matrix_form()
    shortcut: Optional[MILPSolution] = None
    if form.num_variables == 0:
        # every row reads 0: the model is decided by whether 0 fits each row
        feasible = bool(np.all(form.constraint_lb <= 0.0) and np.all(form.constraint_ub >= 0.0))
        constant = model.objective_value({}) if feasible else float("nan")
        shortcut = MILPSolution(
            status=SolveStatus.OPTIMAL if feasible else SolveStatus.INFEASIBLE,
            objective=constant,
            values={},
            bound=constant,
            solve_time=time.perf_counter() - start,
            backend=backend,
            message="empty model" if feasible else "empty model with an unsatisfiable row",
        )
    # Tracing stage hook: a no-op unless a collector is active on this thread
    # (see repro.obs.trace.collect_stages).
    record_stage("milp.lower", time.perf_counter() - start, shortcut=shortcut is not None)
    return PreparedModel(model=model, form=form, shortcut=shortcut)


def remaining_budget(
    time_limit: float | None, start: float, now: float | None = None
) -> Tuple[float | None, bool]:
    """Time left from a budget started at ``start`` (``perf_counter`` space).

    Returns ``(remaining_seconds_or_None, exhausted)``; preparation time is
    thereby charged against the caller's ``time_limit``.
    """
    if time_limit is None:
        return None, False
    now = time.perf_counter() if now is None else now
    remaining = float(time_limit) - (now - start)
    return max(0.0, remaining), remaining <= 0.0


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def solve(model: Model, options: SolverOptions | None = None) -> MILPSolution:
    """Solve ``model`` with the backend selected in ``options``."""
    from repro.milp.branch_bound import solve_with_branch_bound
    from repro.milp.scipy_backend import solve_with_scipy

    options = options or SolverOptions()
    backend = options.backend.lower()
    if backend in ("highs", "scipy", "scipy-highs"):
        return solve_with_scipy(
            model,
            time_limit=options.time_limit,
            mip_gap=options.mip_gap,
            verbose=options.verbose,
        )
    if backend in ("branch-bound", "bb", "branch_and_bound"):
        return solve_with_branch_bound(
            model,
            time_limit=options.time_limit,
            mip_gap=options.mip_gap,
            max_nodes=options.max_nodes,
            verbose=options.verbose,
            warm_start=options.warm_start,
        )
    raise ValueError(f"unknown MILP backend {options.backend!r}")
