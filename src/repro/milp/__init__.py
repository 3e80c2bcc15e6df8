"""MILP modelling and solving substrate.

The paper's floorplanner is formulated as a Mixed-Integer Linear Program and
handed to an off-the-shelf solver.  No third-party modelling layer (PuLP,
Pyomo, OR-Tools) is available in this environment, so this package provides a
small but complete modelling language of its own:

* :class:`~repro.milp.expr.Variable` and :class:`~repro.milp.expr.LinExpr`
  implement affine expressions with operator overloading;
* :class:`~repro.milp.model.Model` collects variables, linear constraints and
  an objective, and can export the problem in a sparse matrix form;
* :mod:`~repro.milp.scipy_backend` passes a model's CSC arrays to the HiGHS
  branch-and-cut solver through scipy's private HiGHS binding
  (``scipy.optimize._highspy._core._Highs``), with the objective constant as
  its offset and an optional MIP start;
* :mod:`~repro.milp.branch_bound` is a pure-Python branch-and-bound solver on
  top of LP relaxations, the fallback backend and HiGHS's differential
  oracle;
* :func:`~repro.milp.solver.solve` dispatches between backends with
  :class:`~repro.milp.options.SolverOptions` and a MIP start (``start=``);
  both run through one pipeline, :func:`~repro.milp.solver.solve_pipeline`,
  and supply only their search.

The exports are lazy (PEP 562): :class:`SolverOptions` resolves without
loading scipy, so code that only describes or fingerprints jobs stays light.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.milp.expr": ["LinExpr", "Variable", "VarType", "quicksum"],
    "repro.milp.constraint": ["Constraint", "Sense"],
    "repro.milp.model": ["MatrixForm", "Model", "ModelStats"],
    "repro.milp.solution": ["MILPSolution", "SolveStatus"],
    "repro.milp.options": ["SolverOptions"],
    "repro.milp.solver": ["prepare_model", "solve"],
    "repro.milp.branch_bound": ["split_matrix_form"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
