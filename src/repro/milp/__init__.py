"""MILP modelling and solving substrate.

The paper's floorplanner is formulated as a Mixed-Integer Linear Program and
handed to an off-the-shelf solver.  No third-party modelling layer (PuLP,
Pyomo, OR-Tools) is available in this environment, so this package provides a
small but complete modelling language of its own:

* :class:`~repro.milp.expr.Variable` and :class:`~repro.milp.expr.LinExpr`
  implement affine expressions with operator overloading;
* :class:`~repro.milp.model.Model` collects variables, linear constraints and
  an objective, and can export the problem in a sparse matrix form;
* :mod:`~repro.milp.scipy_backend` compiles a model to
  :func:`scipy.optimize.milp` (the HiGHS branch-and-cut solver);
* :mod:`~repro.milp.branch_bound` is a pure-Python branch-and-bound solver on
  top of LP relaxations, used as a fallback backend and for ablations;
* :func:`~repro.milp.solver.solve` dispatches between backends and applies
  :class:`~repro.milp.solver.SolverOptions` (time limit, MIP gap, verbosity).
"""

from repro.milp.expr import LinExpr, Variable, VarType, quicksum
from repro.milp.constraint import Constraint, Sense
from repro.milp.model import MatrixForm, Model, ModelStats
from repro.milp.solution import MILPSolution, SolveStatus
from repro.milp.solver import SolverOptions, prepare_model, solve, split_matrix_form

__all__ = [
    "LinExpr",
    "Variable",
    "VarType",
    "quicksum",
    "Constraint",
    "Sense",
    "MatrixForm",
    "Model",
    "ModelStats",
    "MILPSolution",
    "SolveStatus",
    "SolverOptions",
    "prepare_model",
    "split_matrix_form",
    "solve",
]
