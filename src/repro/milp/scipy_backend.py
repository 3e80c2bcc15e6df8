"""Backend that compiles a :class:`~repro.milp.model.Model` to HiGHS.

HiGHS is an exact branch-and-cut MILP solver, so the paper's formulation keeps
its feasibility and optimality semantics when solved through this backend.

Lowering, the MIP start check, the time budget and the answer are the shared
:func:`repro.milp.solver.solve_pipeline`; this module is the search.  The
lowered model's CSC arrays go straight to the HiGHS object scipy ships,
``scipy.optimize._highspy._core._Highs``.  That module is private to scipy;
it is used because ``scipy.optimize.milp`` takes neither a MIP start nor an
objective offset:

* the objective constant the lowering drops goes in as HiGHS's objective
  offset, so ``mip_rel_gap`` measures the gap of the true objective;
* a MIP start (:meth:`~repro.milp.solver.PreparedModel.start_point`) goes to
  ``setSolution``, and with a start HiGHS skips its feasibility-jump
  heuristic: the start already is a feasible point;
* ``presolve=False`` turns HiGHS's presolve off (the floorplan solver does so
  when it searches an HO model from its seed);
* status, point, bound and node count are read from ``getModelStatus()``,
  ``getSolution()`` and ``getInfo()``.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Optional

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from repro.milp.expr import Variable
from repro.milp.model import Model
from repro.milp.solution import MILPSolution, SolveStatus
from repro.milp.solver import PreparedModel, Search, solve_pipeline

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
        Pre-built :class:`~repro.milp.solver.PreparedModel`, so one lowering
        can serve several solves; built here when omitted.
    start:
        Optional MIP start, a complete assignment of the variables.  When it
        is feasible, the answer is never worse than it, and a solve that
        ends without a solution of its own returns it as ``FEASIBLE``.
    presolve:
        Whether HiGHS runs its presolve.
    """
    search = functools.partial(_search, mip_gap=mip_gap, verbose=verbose, presolve=presolve)
    return solve_pipeline(model, "scipy-highs", search, time_limit, prepared, start)


def _search(
    prepared: PreparedModel,
    x0: Optional[np.ndarray],
    budget: float | None,
    mip_gap: float | None,
    verbose: bool,
    presolve: bool,
) -> Search:
    """One HiGHS run on ``prepared`` from the start ``x0``, within ``budget``."""
    form = prepared.form
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
        float(prepared.offset),
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
    if x0 is not None:
        highs.setSolution(x0.size, np.arange(x0.size, dtype=np.int32), x0)
    highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()

    status = _STATUS.get(model_status, SolveStatus.ERROR)
    searched = model_status in _SEARCHED
    x = None
    if searched and info.primal_solution_status == _FEASIBLE_POINT:
        x = np.asarray(highs.getSolution().col_value)
    elif status is SolveStatus.OPTIMAL:
        status = SolveStatus.ERROR
    bound = math.nan
    if searched and np.any(form.integrality > 0) and math.isfinite(info.mip_dual_bound):
        bound = info.mip_dual_bound - prepared.offset
    status_text = highs.modelStatusToString(model_status)
    return Search(
        status,
        x,
        bound,
        max(int(info.mip_node_count), 0),
        status_text,
        {"presolve": "on" if presolve else "off", "model_status": status_text},
    )
