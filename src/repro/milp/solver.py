"""Solve facade and the solve pipeline both MILP backends share.

Besides the user-facing :func:`solve`, this module owns every step of a solve
that does not depend on the backend.  :func:`solve_pipeline` lowers the model
(:func:`prepare_model`, or a :class:`PreparedModel` the caller built, which
may be shared by several solves), returns the shortcut answer of a model
without variables, checks the MIP start, starts the time-limit budget, runs
the backend's search (:data:`SearchFn`) and turns what it found into the
:class:`MILPSolution`.  A backend (:mod:`repro.milp.scipy_backend`,
:mod:`repro.milp.branch_bound`) is its search alone.

A MIP start (``start=``) is a complete assignment that
:meth:`PreparedModel.start_point` checks against every bound and row.  A
start that passes is the first incumbent of both backends, so no answer is
worse than it, and a solve that ends without a better solution of its own
(also one whose budget runs out during lowering) returns the start as
``FEASIBLE``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.milp.expr import Variable
from repro.milp.model import MatrixForm, Model
from repro.milp.options import SolverOptions
from repro.milp.solution import MILPSolution, SolveStatus
from repro.obs.trace import record_stage


# ----------------------------------------------------------------------
# shared backend glue
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PreparedModel:
    """Everything a backend needs, built once by :func:`prepare_model`.

    ``shortcut`` is a complete :class:`MILPSolution` when preparation already
    decided the model (a model without variables); the pipeline returns a
    copy stamped with the backend and the solve time.
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

    def start_point(self, start: Mapping[Variable, float] | None) -> Optional[np.ndarray]:
        """``start`` as a point of ``form``, or ``None`` unless it is feasible.

        A feasible start sets every variable, keeps every bound and row within
        ``1e-6`` and gives integer variables integer values.
        """
        if not start:
            return None
        try:
            x = np.array([start[var] for var in self.form.variables], dtype=float)
        except KeyError:
            return None
        form, tol = self.form, 1e-6
        activity = form.constraint_matrix @ x
        integral = x[form.integrality > 0]
        feasible = (
            np.all(x >= form.var_lb - tol)
            and np.all(x <= form.var_ub + tol)
            and np.all(activity >= form.constraint_lb - tol)
            and np.all(activity <= form.constraint_ub + tol)
            and np.all(np.abs(integral - np.round(integral)) <= tol)
        )
        return x if feasible else None

    @property
    def offset(self) -> float:
        """The objective constant in the lowered, minimize-sense objective.

        The lowering drops it; a point's objective in that sense is
        ``form.objective @ x + offset``.
        """
        constant = self.model.objective.constant
        return constant if self.model.is_minimization else -constant

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


def remaining_budget(time_limit: float | None, start: float) -> Tuple[float | None, bool]:
    """``(seconds left or None, exhausted)`` of a budget started at ``start``
    (``perf_counter`` space)."""
    if time_limit is None:
        return None, False
    remaining = float(time_limit) - (time.perf_counter() - start)
    return max(0.0, remaining), remaining <= 0.0


@dataclasses.dataclass
class Search:
    """What a backend's search found on a :class:`PreparedModel`.

    ``x`` is a point of the prepared form (``None``: none found) and
    ``bound`` the proven bound in the lowered, minimize sense without the
    objective constant (not finite: none).  ``annotations`` extend the
    ``milp.search`` stage.
    """

    status: SolveStatus
    x: Optional[np.ndarray]
    bound: float
    nodes: int
    message: str
    annotations: Dict[str, object] = dataclasses.field(default_factory=dict)


#: A backend's search: ``(prepared, checked start or None, remaining budget
#: in seconds or None) -> Search``.
SearchFn = Callable[[PreparedModel, Optional[np.ndarray], Optional[float]], Search]


def solve_pipeline(
    model: Model,
    backend: str,
    search: SearchFn,
    time_limit: float | None = None,
    prepared: PreparedModel | None = None,
    start: Mapping[Variable, float] | None = None,
) -> MILPSolution:
    """Solve ``model`` with ``search``, the one step that is the backend's own.

    The ``time_limit`` budget starts here, so it covers the lowering, and a
    budget that runs out before the search returns the checked start as
    ``FEASIBLE``, or ``TIME_LIMIT`` without one.
    """
    started = time.perf_counter()
    if prepared is None:
        prepared = prepare_model(model, backend=backend)
    if prepared.shortcut is not None:
        # copy before stamping: a PreparedModel may be reused across backends
        return dataclasses.replace(
            prepared.shortcut, backend=backend, solve_time=time.perf_counter() - started
        )

    x0 = prepared.start_point(start)
    budget, exhausted = remaining_budget(time_limit, started)
    if exhausted:
        found = Search(
            SolveStatus.TIME_LIMIT, None, math.nan, 0, "time limit exhausted during lowering"
        )
        return _answer(prepared, found, x0, backend, started)

    search_started = time.perf_counter()
    found = search(prepared, x0, budget)
    search_seconds = time.perf_counter() - search_started
    solution = _answer(prepared, found, x0, backend, started)
    record_stage(
        "milp.search",
        search_seconds,
        backend=backend,
        nodes=found.nodes,
        bound=solution.bound,
        start_objective=None if x0 is None else prepared.user_bound(prepared.form.objective @ x0),
        **found.annotations,
    )
    return solution


def _answer(
    prepared: PreparedModel,
    found: Search,
    x0: Optional[np.ndarray],
    backend: str,
    started: float,
) -> MILPSolution:
    """The :class:`MILPSolution` for what a search found, given the start ``x0``."""
    status, x, message = found.status, found.x, found.message
    objective = prepared.form.objective
    if x0 is not None and (x is None or objective @ x > objective @ x0 + 1e-9):
        # the search found nothing better than the start: the start is the answer
        x, message = x0, f"{message}; returning the start"
    if x is not None and status is not SolveStatus.OPTIMAL:
        status = SolveStatus.FEASIBLE

    values: Dict[Variable, float] = {}
    value = math.nan
    if x is not None:
        values = prepared.restore_values(x)
        # the user-facing objective, with the constant the lowering dropped
        value = prepared.model.objective_value(values)
    bound = math.nan
    if math.isfinite(found.bound):
        bound = prepared.user_bound(found.bound)
    elif status is SolveStatus.OPTIMAL:
        bound = value  # an LP's optimum is its own bound
    return MILPSolution(
        status=status,
        objective=value,
        values=values,
        bound=bound,
        solve_time=time.perf_counter() - started,
        node_count=found.nodes,
        backend=backend,
        message=message,
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def solve(
    model: Model,
    options: SolverOptions | None = None,
    start: Mapping[Variable, float] | None = None,
    presolve: bool = True,
) -> MILPSolution:
    """Solve ``model`` with the backend selected in ``options``.

    ``start`` is an optional MIP start, a complete assignment of the model's
    variables; both backends take it as their first incumbent when it is
    feasible and ignore it otherwise.  ``presolve=False``
    runs HiGHS without its presolve (branch and bound has none); the
    floorplan solver asks for that when it searches from the HO seed.
    """
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
            start=start,
            presolve=presolve,
        )
    if backend in ("branch-bound", "bb", "branch_and_bound"):
        return solve_with_branch_bound(
            model,
            time_limit=options.time_limit,
            mip_gap=options.mip_gap,
            max_nodes=options.max_nodes,
            verbose=options.verbose,
            start=start,
        )
    raise ValueError(f"unknown MILP backend {options.backend!r}")
