"""Backend that compiles a :class:`~repro.milp.model.Model` to HiGHS.

`scipy.optimize.milp` wraps the HiGHS branch-and-cut solver, which is an exact
MILP solver; the paper's formulation therefore keeps its feasibility and
optimality semantics when solved through this backend.

The model is lowered through the shared
:func:`repro.milp.solver.prepare_model` glue and HiGHS solves that matrix form
directly; HiGHS runs its own presolve.
"""

from __future__ import annotations

import dataclasses
import time

from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.model import Model
from repro.milp.solution import MILPSolution, SolveStatus
from repro.milp.solver import PreparedModel, prepare_model, remaining_budget
from repro.obs.trace import record_stage


def solve_with_scipy(
    model: Model,
    time_limit: float | None = None,
    mip_gap: float | None = None,
    verbose: bool = False,
    prepared: PreparedModel | None = None,
) -> MILPSolution:
    """Solve ``model`` using ``scipy.optimize.milp`` (HiGHS).

    Parameters
    ----------
    model:
        The model to solve.
    time_limit:
        Wall-clock limit in seconds (``None`` = no limit).  The budget covers
        matrix lowering as well as HiGHS time.
    mip_gap:
        Relative MIP gap at which HiGHS may stop early.
    verbose:
        Forwarded to HiGHS output.
    prepared:
        Pre-built :class:`~repro.milp.solver.PreparedModel` (the facade
        passes one to avoid lowering twice); built here when omitted.
    """
    start = time.perf_counter()
    if prepared is None:
        prepared = prepare_model(model, backend="scipy-highs")

    if prepared.shortcut is not None:
        # copy before stamping: a PreparedModel may be reused across backends
        return dataclasses.replace(
            prepared.shortcut,
            backend="scipy-highs",
            solve_time=time.perf_counter() - start,
        )

    form = prepared.form
    budget, exhausted = remaining_budget(time_limit, start)
    if exhausted:
        return MILPSolution(
            status=SolveStatus.TIME_LIMIT,
            solve_time=time.perf_counter() - start,
            backend="scipy-highs",
            message="time limit exhausted during lowering",
        )

    options: dict = {"disp": bool(verbose)}
    if budget is not None:
        options["time_limit"] = budget
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)

    constraints = None
    if form.num_constraints > 0:
        constraints = LinearConstraint(
            form.constraint_matrix, form.constraint_lb, form.constraint_ub
        )

    bounds = Bounds(form.var_lb, form.var_ub)

    search_start = time.perf_counter()
    result = milp(
        c=form.objective,
        constraints=constraints,
        integrality=form.integrality,
        bounds=bounds,
        options=options,
    )
    search_seconds = time.perf_counter() - search_start
    node_count = int(getattr(result, "mip_node_count", 0) or 0)
    elapsed = time.perf_counter() - start

    status = _map_status(result)
    values = {}
    objective = float("nan")
    if result.x is not None:
        values = prepared.restore_values(result.x)
        # Evaluate through the user-facing objective so the constant the
        # lowering dropped is reflected.
        objective = model.objective_value(values)

    bound = float("nan")
    mip_dual_bound = getattr(result, "mip_dual_bound", None)
    if mip_dual_bound is not None:
        bound = prepared.user_bound(float(mip_dual_bound))
    elif status is SolveStatus.OPTIMAL:
        bound = objective
    record_stage(
        "milp.search",
        search_seconds,
        backend="scipy-highs",
        nodes=node_count,
        bound=bound,
    )

    return MILPSolution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        solve_time=elapsed,
        node_count=node_count,
        backend="scipy-highs",
        message=str(getattr(result, "message", "")),
    )


def _map_status(result) -> SolveStatus:
    # scipy.optimize.milp status codes:
    # 0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded, 4 other
    status = getattr(result, "status", 4)
    if status == 0:
        return SolveStatus.OPTIMAL
    if status == 1:
        return SolveStatus.FEASIBLE if result.x is not None else SolveStatus.TIME_LIMIT
    if status == 2:
        return SolveStatus.INFEASIBLE
    if status == 3:
        return SolveStatus.UNBOUNDED
    if result.x is not None:
        return SolveStatus.FEASIBLE
    return SolveStatus.ERROR
