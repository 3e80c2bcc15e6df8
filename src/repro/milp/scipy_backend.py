"""Backend that compiles a :class:`~repro.milp.model.Model` to HiGHS.

HiGHS is an exact branch-and-cut MILP solver, so the paper's formulation keeps
its feasibility and optimality semantics when solved through this backend.

The model is lowered through the shared
:func:`repro.milp.solver.prepare_model` glue, and its CSC arrays go straight
to the HiGHS object scipy ships, ``scipy.optimize._highspy._core._Highs``.
That module is private to scipy; it is used because ``scipy.optimize.milp``
takes neither a MIP start nor an objective offset:

* the objective constant the lowering drops goes in as HiGHS's objective
  offset, so ``mip_rel_gap`` measures the gap of the true objective;
* a MIP start (:meth:`~repro.milp.solver.PreparedModel.start_point`) goes to
  ``setSolution``, and with a start HiGHS skips its feasibility-jump
  heuristic: the start already is a feasible point;
* ``presolve=False`` turns HiGHS's presolve off (the floorplan solver does so
  when it searches an HO model from its seed);
* status, bound and node count are read from ``getModelStatus()`` and
  ``getInfo()``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Mapping

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from repro.milp.expr import Variable
from repro.milp.model import Model
from repro.milp.solution import MILPSolution, SolveStatus
from repro.milp.solver import PreparedModel, prepare_model, remaining_budget
from repro.obs.trace import record_stage

#: ``HighsMatrixFormat::kColwise`` and ``ObjSense::kMinimize``
_COLWISE = 1
_MINIMIZE = 1
#: ``SolutionStatus::kSolutionStatusFeasible``
_FEASIBLE_POINT = 2

_STATUS = {
    HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    HighsModelStatus.kModelError: SolveStatus.INFEASIBLE,
    HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
    HighsModelStatus.kTimeLimit: SolveStatus.TIME_LIMIT,
    HighsModelStatus.kIterationLimit: SolveStatus.TIME_LIMIT,
}
#: the statuses after which HiGHS's point and bound mean something
_SEARCHED = {
    HighsModelStatus.kOptimal,
    HighsModelStatus.kTimeLimit,
    HighsModelStatus.kIterationLimit,
    HighsModelStatus.kSolutionLimit,
}


def solve_with_scipy(
    model: Model,
    time_limit: float | None = None,
    mip_gap: float | None = None,
    verbose: bool = False,
    prepared: PreparedModel | None = None,
    start: Mapping[Variable, float] | None = None,
    presolve: bool = True,
) -> MILPSolution:
    """Solve ``model`` with HiGHS.

    Parameters
    ----------
    model:
        The model to solve.
    time_limit:
        Wall-clock limit in seconds (``None`` = no limit).  The budget covers
        matrix lowering as well as HiGHS time.
    mip_gap:
        Relative MIP gap at which HiGHS may stop early, measured on the
        objective with its constant.
    verbose:
        Enable HiGHS's log output.
    prepared:
        Pre-built :class:`~repro.milp.solver.PreparedModel` (the facade
        passes one to avoid lowering twice); built here when omitted.
    start:
        Optional MIP start, a complete assignment of the variables.  When it
        is feasible, the answer is never worse than it, and a solve that
        ends without a solution of its own returns it as ``FEASIBLE``.
    presolve:
        Whether HiGHS runs its presolve.
    """
    started = time.perf_counter()
    if prepared is None:
        prepared = prepare_model(model, backend="scipy-highs")

    if prepared.shortcut is not None:
        # copy before stamping: a PreparedModel may be reused across backends
        return dataclasses.replace(
            prepared.shortcut,
            backend="scipy-highs",
            solve_time=time.perf_counter() - started,
        )

    form = prepared.form
    x0 = prepared.start_point(start)
    budget, exhausted = remaining_budget(time_limit, started)
    if exhausted:
        message = "time limit exhausted during lowering"
        if x0 is not None:
            return prepared.start_solution(
                x0, "scipy-highs", float("nan"), f"{message}; returning the start",
                solve_time=time.perf_counter() - started,
            )
        return MILPSolution(
            status=SolveStatus.TIME_LIMIT,
            solve_time=time.perf_counter() - started,
            backend="scipy-highs",
            message=message,
        )

    # the lowering works in the minimize sense and drops the constant
    constant = model.objective.constant
    offset = constant if model.is_minimization else -constant
    highs = _Highs()
    highs.setOptionValue("output_flag", bool(verbose))
    if budget is not None:
        highs.setOptionValue("time_limit", float(budget))
    if mip_gap is not None:
        highs.setOptionValue("mip_rel_gap", float(mip_gap))
    if not presolve:
        highs.setOptionValue("presolve", "off")
    if x0 is not None:
        highs.setOptionValue("mip_heuristic_run_feasibility_jump", False)
    matrix = form.constraint_matrix.tocsc()
    highs.passModel(
        form.num_variables,
        form.num_constraints,
        int(matrix.nnz),
        _COLWISE,
        _MINIMIZE,
        float(offset),
        form.objective,
        form.var_lb.astype(np.float64),
        form.var_ub.astype(np.float64),
        form.constraint_lb,
        form.constraint_ub,
        matrix.indptr.astype(np.int32),
        matrix.indices.astype(np.int32),
        matrix.data.astype(np.float64),
        form.integrality.astype(np.int32),
    )
    start_objective = None
    if x0 is not None:
        highs.setSolution(x0.size, np.arange(x0.size, dtype=np.int32), x0)
        start_objective = prepared.user_bound(form.objective @ x0)

    search_start = time.perf_counter()
    highs.run()
    search_seconds = time.perf_counter() - search_start
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    node_count = max(int(info.mip_node_count), 0)

    status = _STATUS.get(model_status, SolveStatus.ERROR)
    status_text = highs.modelStatusToString(model_status)
    message = status_text
    searched = model_status in _SEARCHED
    x = None
    if searched and info.primal_solution_status == _FEASIBLE_POINT:
        x = np.asarray(highs.getSolution().col_value)
    elif status is SolveStatus.OPTIMAL:
        status = SolveStatus.ERROR
    if x0 is not None and (
        x is None or form.objective @ x > form.objective @ x0 + 1e-9
    ):
        # HiGHS found nothing better than the start: the start is the answer
        x = x0
        message = f"{status_text}; returning the start"
    if x is not None and status is not SolveStatus.OPTIMAL:
        status = SolveStatus.FEASIBLE

    values = {}
    objective = float("nan")
    if x is not None:
        values = prepared.restore_values(x)
        # Evaluate through the user-facing objective so the constant the
        # lowering dropped is reflected.
        objective = model.objective_value(values)
    bound = float("nan")
    if searched and np.any(form.integrality > 0) and math.isfinite(info.mip_dual_bound):
        bound = prepared.user_bound(info.mip_dual_bound - offset)
    elif status is SolveStatus.OPTIMAL:
        bound = objective
    record_stage(
        "milp.search",
        search_seconds,
        backend="scipy-highs",
        nodes=node_count,
        bound=bound,
        start_objective=start_objective,
        presolve="on" if presolve else "off",
        model_status=status_text,
    )
    return MILPSolution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        solve_time=time.perf_counter() - started,
        node_count=node_count,
        backend="scipy-highs",
        message=message,
    )
