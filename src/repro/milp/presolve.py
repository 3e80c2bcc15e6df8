"""MILP presolve: shrink a :class:`~repro.milp.model.MatrixForm` before solving.

The floorplanning models of the paper carry a lot of structure a solver never
needs to see: fixed binaries, singleton rows that are really variable
bounds, constraints duplicated between the base model and the relocation
extension, and rows made redundant by the variable bounds alone.  This module
removes all of that *exactly* — every reduction preserves the feasible set and
the optimal objective value — and records an invertible mapping so solutions
of the reduced problem are restored to the original variable space
(:meth:`PresolveResult.restore`).

Reductions applied (iterated to a fixed point):

1. **coefficient cleanup** — drop stored coefficients below ``1e-12``;
2. **integer bound tightening** — round fractional bounds of integral
   variables inward;
3. **fixed-variable substitution** — variables with ``lb == ub`` are removed
   and folded into the row activity bounds and the objective offset;
4. **singleton rows** — a row with one nonzero is a variable bound; tighten
   and drop the row;
5. **redundant rows** — rows whose activity range (from the variable bounds)
   already implies the constraint are dropped; rows whose range *contradicts*
   it prove infeasibility;
6. **duplicate rows** — rows with identical coefficient patterns are merged
   by intersecting their activity bounds.

All reductions work on the sense-free ``lb <= A x <= ub`` row form, so the
presolver is oblivious to how constraints were written.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, Optional

import numpy as np
from scipy import sparse

from repro.milp.expr import Variable
from repro.milp.model import MatrixForm

__all__ = ["PresolveStatus", "PresolveStats", "PresolveResult", "presolve"]

#: Coefficients smaller than this are treated as exact zeros.
COEF_TOL = 1e-12

#: Feasibility tolerance used by redundancy/infeasibility activity tests.
FEAS_TOL = 1e-9

#: Bound on presolve passes; each pass is a fixed point check, so the loop
#: normally exits after 2-3 iterations.
MAX_PASSES = 10


class PresolveStatus(enum.Enum):
    """Outcome of a presolve run."""

    REDUCED = "reduced"  # a (possibly unchanged) reduced problem remains
    SOLVED = "solved"  # every variable was fixed; the model is solved
    INFEASIBLE = "infeasible"  # presolve proved the model infeasible


@dataclasses.dataclass
class PresolveStats:
    """What presolve did, for reports and benchmark assertions."""

    passes: int = 0
    coefficients_dropped: int = 0
    bounds_tightened: int = 0
    variables_fixed: int = 0
    singleton_rows: int = 0
    redundant_rows: int = 0
    duplicate_rows: int = 0
    empty_rows: int = 0
    rows_before: int = 0
    rows_after: int = 0
    cols_before: int = 0
    cols_after: int = 0
    nnz_before: int = 0
    nnz_after: int = 0

    @property
    def rows_removed(self) -> int:
        """Total constraint rows eliminated."""
        return self.rows_before - self.rows_after

    @property
    def cols_removed(self) -> int:
        """Total variable columns eliminated."""
        return self.cols_before - self.cols_after

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"presolve: {self.rows_before}x{self.cols_before} -> "
            f"{self.rows_after}x{self.cols_after} "
            f"({self.rows_removed} rows, {self.cols_removed} cols, "
            f"{self.nnz_before - self.nnz_after} nonzeros removed "
            f"in {self.passes} passes)"
        )


@dataclasses.dataclass
class PresolveResult:
    """Reduced problem plus the exact postsolve mapping.

    ``reduced`` is ``None`` unless ``status is PresolveStatus.REDUCED``.  The
    mapping back to the original space is: original variable ``j`` takes
    ``fixed_values[j]`` when presolve fixed it, otherwise the reduced
    solution's value at position ``kept_cols.index(j)``.  Objective values of
    the reduced problem are offset by ``objective_offset`` (in the internal
    minimization sense).
    """

    status: PresolveStatus
    original: MatrixForm
    reduced: Optional[MatrixForm]
    stats: PresolveStats
    kept_cols: np.ndarray
    fixed_values: np.ndarray
    fixed_mask: np.ndarray
    objective_offset: float = 0.0
    message: str = ""

    # ------------------------------------------------------------------
    def restore(self, reduced_x: np.ndarray) -> np.ndarray:
        """Map a reduced solution vector back to the original variables."""
        full = self.fixed_values.copy()
        if self.kept_cols.size:
            full[self.kept_cols] = np.asarray(reduced_x, dtype=float)
        return full

    def restore_values(self, reduced_x: np.ndarray) -> Dict[Variable, float]:
        """Restore to a ``Variable -> value`` mapping with integers rounded."""
        full = self.restore(reduced_x)
        values: Dict[Variable, float] = {}
        for var, val in zip(self.original.variables, full):
            values[var] = float(round(val)) if var.is_integral else float(val)
        return values

    def restore_objective(self, reduced_objective: float) -> float:
        """Objective of the original (internal minimize) problem."""
        return float(reduced_objective) + self.objective_offset

    def fixed_only_values(self) -> Dict[Variable, float]:
        """Values when presolve solved the model outright (status SOLVED)."""
        if self.status is not PresolveStatus.SOLVED:
            raise ValueError("model was not fully solved by presolve")
        return self.restore_values(np.empty(0))


def presolve(form: MatrixForm) -> PresolveResult:
    """Run the reduction loop on a matrix form.

    The input form is never mutated.  Works on the sparse lowering; a dense
    form (from ``to_matrix_form(dense=True)``) is converted first.
    """
    form = form.to_sparse()
    nrows, ncols = form.num_constraints, form.num_variables

    matrix = form.constraint_matrix.copy().tocsr()
    row_lb = form.constraint_lb.copy()
    row_ub = form.constraint_ub.copy()
    var_lb = form.var_lb.astype(float).copy()
    var_ub = form.var_ub.astype(float).copy()
    objective = form.objective
    integral = form.integrality > 0

    stats = PresolveStats(
        rows_before=nrows,
        cols_before=ncols,
        nnz_before=int(matrix.nnz),
    )

    row_alive = np.ones(nrows, dtype=bool)
    col_alive = np.ones(ncols, dtype=bool)
    fixed_values = np.zeros(ncols)
    infeasible_reason: Optional[str] = None

    def _fail(reason: str) -> PresolveResult:
        stats.rows_after = int(row_alive.sum())
        stats.cols_after = int(col_alive.sum())
        stats.nnz_after = 0
        return PresolveResult(
            status=PresolveStatus.INFEASIBLE,
            original=form,
            reduced=None,
            stats=stats,
            kept_cols=np.flatnonzero(col_alive),
            fixed_values=fixed_values,
            fixed_mask=~col_alive,
            message=reason,
        )

    # ------------------------------------------------------------------
    # pass loop
    # ------------------------------------------------------------------
    for _ in range(MAX_PASSES):
        changed = False
        stats.passes += 1

        # 1. coefficient cleanup ---------------------------------------
        small = np.abs(matrix.data) < COEF_TOL
        nonzero_small = small & (matrix.data != 0.0)
        if nonzero_small.any():
            stats.coefficients_dropped += int(nonzero_small.sum())
            changed = True
        if small.any():
            matrix.data[small] = 0.0
        matrix.eliminate_zeros()

        # 2. integer bound tightening ----------------------------------
        tighten_lb = integral & col_alive & (np.ceil(var_lb - FEAS_TOL) > var_lb)
        tighten_ub = integral & col_alive & (np.floor(var_ub + FEAS_TOL) < var_ub)
        if tighten_lb.any():
            var_lb[tighten_lb] = np.ceil(var_lb[tighten_lb] - FEAS_TOL)
            stats.bounds_tightened += int(tighten_lb.sum())
            changed = True
        if tighten_ub.any():
            var_ub[tighten_ub] = np.floor(var_ub[tighten_ub] + FEAS_TOL)
            stats.bounds_tightened += int(tighten_ub.sum())
            changed = True
        crossed = col_alive & (var_lb > var_ub + FEAS_TOL)
        if crossed.any():
            j = int(np.flatnonzero(crossed)[0])
            infeasible_reason = (
                f"variable {form.variables[j].name!r} has empty domain "
                f"[{var_lb[j]:g}, {var_ub[j]:g}]"
            )
            break

        # 3. fixed-variable substitution -------------------------------
        newly_fixed = col_alive & (var_ub - var_lb <= FEAS_TOL)
        if newly_fixed.any():
            fix_idx = np.flatnonzero(newly_fixed)
            values = 0.5 * (var_lb[fix_idx] + var_ub[fix_idx])
            values = np.where(
                integral[fix_idx], np.round(values), values
            )
            fixed_values[fix_idx] = values
            # fold a_ij * x_j into the row activity bounds
            csc = matrix.tocsc()
            for j, value in zip(fix_idx.tolist(), values.tolist()):
                start, end = csc.indptr[j], csc.indptr[j + 1]
                rows = csc.indices[start:end]
                coefs = csc.data[start:end]
                if value != 0.0 and rows.size:
                    shift = coefs * value
                    row_lb[rows] = np.where(
                        np.isfinite(row_lb[rows]), row_lb[rows] - shift, row_lb[rows]
                    )
                    row_ub[rows] = np.where(
                        np.isfinite(row_ub[rows]), row_ub[rows] - shift, row_ub[rows]
                    )
            col_alive[fix_idx] = False
            stats.variables_fixed += int(fix_idx.size)
            # zero the fixed columns out of the matrix
            keep_mask = np.ones(ncols, dtype=bool)
            keep_mask[fix_idx] = False
            scale = sparse.diags(keep_mask.astype(float))
            matrix = (matrix @ scale).tocsr()
            matrix.eliminate_zeros()
            changed = True

        # 4. singleton rows --------------------------------------------
        row_nnz = np.diff(matrix.indptr)
        singleton = row_alive & (row_nnz == 1)
        if singleton.any():
            for i in np.flatnonzero(singleton).tolist():
                start = matrix.indptr[i]
                j = int(matrix.indices[start])
                a = float(matrix.data[start])
                lo, hi = row_lb[i], row_ub[i]
                if a > 0:
                    new_lb = lo / a if np.isfinite(lo) else -math.inf
                    new_ub = hi / a if np.isfinite(hi) else math.inf
                else:
                    new_lb = hi / a if np.isfinite(hi) else -math.inf
                    new_ub = lo / a if np.isfinite(lo) else math.inf
                if new_lb > var_lb[j] + FEAS_TOL:
                    var_lb[j] = new_lb
                    stats.bounds_tightened += 1
                if new_ub < var_ub[j] - FEAS_TOL:
                    var_ub[j] = new_ub
                    stats.bounds_tightened += 1
                row_alive[i] = False
                stats.singleton_rows += 1
                if var_lb[j] > var_ub[j] + FEAS_TOL:
                    infeasible_reason = (
                        f"singleton row empties domain of "
                        f"{form.variables[j].name!r}"
                    )
                    break
            if infeasible_reason is not None:
                break
            changed = True

        # 5. empty + redundant rows ------------------------------------
        row_nnz = np.diff(matrix.indptr)
        empty = row_alive & (row_nnz == 0)
        if empty.any():
            bad = empty & ((row_lb > FEAS_TOL) | (row_ub < -FEAS_TOL))
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                infeasible_reason = (
                    f"row {i} reduced to 0 in [{row_lb[i]:g}, {row_ub[i]:g}]"
                )
                break
            stats.empty_rows += int(empty.sum())
            row_alive[empty] = False
            changed = True

        min_act, max_act = _activity_bounds(matrix, var_lb, var_ub)
        contradiction = row_alive & (
            (min_act > row_ub + FEAS_TOL) | (max_act < row_lb - FEAS_TOL)
        )
        if contradiction.any():
            i = int(np.flatnonzero(contradiction)[0])
            infeasible_reason = (
                f"row {i} activity [{min_act[i]:g}, {max_act[i]:g}] cannot meet "
                f"[{row_lb[i]:g}, {row_ub[i]:g}]"
            )
            break
        redundant = (
            row_alive
            & (row_nnz > 0)
            & (min_act >= row_lb - FEAS_TOL)
            & (max_act <= row_ub + FEAS_TOL)
        )
        if redundant.any():
            stats.redundant_rows += int(redundant.sum())
            row_alive[redundant] = False
            changed = True

        # 6. duplicate rows --------------------------------------------
        removed = _merge_duplicate_rows(matrix, row_lb, row_ub, row_alive)
        if removed < 0:
            infeasible_reason = "duplicate rows with incompatible bounds"
            break
        if removed:
            stats.duplicate_rows += removed
            changed = True

        if not changed:
            break

    # ------------------------------------------------------------------
    # assemble the result
    # ------------------------------------------------------------------
    if infeasible_reason is not None:
        return _fail(infeasible_reason)

    kept_cols = np.flatnonzero(col_alive)
    kept_rows = np.flatnonzero(row_alive)
    stats.cols_after = int(kept_cols.size)

    if kept_cols.size == 0:
        # everything fixed: verify the remaining rows accept the fixed point
        stats.rows_after = 0
        stats.nnz_after = 0
        return PresolveResult(
            status=PresolveStatus.SOLVED,
            original=form,
            reduced=None,
            stats=stats,
            kept_cols=kept_cols,
            fixed_values=fixed_values,
            fixed_mask=~col_alive,
            objective_offset=float(objective @ fixed_values),
            message="all variables fixed by presolve",
        )

    reduced_matrix = matrix[kept_rows][:, kept_cols].tocsr()
    reduced_matrix.eliminate_zeros()
    stats.rows_after = int(kept_rows.size)
    stats.nnz_after = int(reduced_matrix.nnz)

    fixed_mask = ~col_alive
    offset = float(objective[fixed_mask] @ fixed_values[fixed_mask])

    reduced = MatrixForm(
        objective=objective[kept_cols].copy(),
        constraint_matrix=reduced_matrix,
        constraint_lb=row_lb[kept_rows].copy(),
        constraint_ub=row_ub[kept_rows].copy(),
        var_lb=var_lb[kept_cols].copy(),
        var_ub=var_ub[kept_cols].copy(),
        integrality=form.integrality[kept_cols].copy(),
        variables=[form.variables[j] for j in kept_cols.tolist()],
    )
    return PresolveResult(
        status=PresolveStatus.REDUCED,
        original=form,
        reduced=reduced,
        stats=stats,
        kept_cols=kept_cols,
        fixed_values=fixed_values,
        fixed_mask=fixed_mask,
        objective_offset=offset,
        message=stats.summary(),
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _activity_bounds(matrix: sparse.csr_matrix, var_lb: np.ndarray, var_ub: np.ndarray):
    """Row activity ranges implied by the variable bounds.

    Sparse matvecs only touch stored entries, so infinite variable bounds
    propagate as ``-inf``/``+inf`` without producing NaNs (a positive
    coefficient never multiplies ``+inf`` when computing the minimum).
    """
    pos = matrix.maximum(0)
    neg = matrix.minimum(0)
    min_act = pos @ var_lb + neg @ var_ub
    max_act = pos @ var_ub + neg @ var_lb
    return min_act, max_act


def _merge_duplicate_rows(
    matrix: sparse.csr_matrix,
    row_lb: np.ndarray,
    row_ub: np.ndarray,
    row_alive: np.ndarray,
) -> int:
    """Merge rows with identical sparsity patterns and coefficients.

    Bounds of duplicates are intersected onto the first occurrence.  Returns
    the number of rows removed, or ``-1`` when an intersection is empty
    (proving infeasibility).
    """
    seen: Dict[tuple, int] = {}
    removed = 0
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for i in np.flatnonzero(row_alive).tolist():
        start, end = indptr[i], indptr[i + 1]
        if start == end:
            continue
        key = (
            tuple(indices[start:end].tolist()),
            tuple(np.round(data[start:end], 12).tolist()),
        )
        first = seen.get(key)
        if first is None:
            seen[key] = i
            continue
        row_lb[first] = max(row_lb[first], row_lb[i])
        row_ub[first] = min(row_ub[first], row_ub[i])
        row_alive[i] = False
        removed += 1
        if row_lb[first] > row_ub[first] + FEAS_TOL:
            return -1
    return removed
