"""Pure-Python branch-and-bound MILP solver.

This backend exists for two reasons:

* it removes the hard dependency on HiGHS MIP support (only LP is needed), and
* it provides a transparent reference implementation used by the ablation
  benchmarks to study how much of the paper's runtime story is attributable to
  the solver rather than the model.

The algorithm is LP-based branch and bound, hot-started at every level:

1. the model is lowered once through
   :func:`repro.milp.solver.prepare_model`, and the ``linprog``-shaped
   constraint split (:func:`repro.milp.solver.split_matrix_form`) is built
   once per solve instead of once per node — only the variable-bound arrays
   differ between nodes (bound-delta re-solves);
2. children inherit the parent's LP state (objective bound and branch
   fractionality): it feeds the pseudo-cost estimates and lets a node be
   pruned against the incumbent *before* its LP is solved;
3. branching uses pseudo-costs (observed objective degradation per unit of
   fractionality, product rule) instead of most-fractional selection;
4. a rounding pass plus a fix-and-propagate dive produce an incumbent at the
   root, and LP reduced costs then fix provably-immovable integers, so
   best-first pruning bites from the first nodes on;
5. on exit the solution carries the achieved MIP gap (``bound`` is always
   populated from the weakest open or gap-pruned node).

``warm_start=False`` reverts to the textbook configuration (most-fractional
branching, no heuristics, per-node constraint split) used as the ablation
baseline by the ``milp.bb_textbook`` benchmark.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.milp.model import MatrixForm, Model
from repro.milp.solution import GAP_EPS, MILPSolution, SolveStatus, relative_gap
from repro.milp.solver import (
    PreparedModel,
    SplitForm,
    prepare_model,
    remaining_budget,
    split_matrix_form,
)
from repro.obs.trace import record_stage

_INT_TOL = 1e-6

#: Round cap of the fix-and-propagate dive (at most two LP solves per round).
_MAX_DIVE_ROUNDS = 12


@dataclass(order=True)
class _Node:
    priority: float
    count: int
    lower: np.ndarray = field(compare=False, default=None)  # type: ignore[assignment]
    upper: np.ndarray = field(compare=False, default=None)  # type: ignore[assignment]
    branch_idx: int = field(compare=False, default=-1)
    branch_up: bool = field(compare=False, default=False)
    branch_frac: float = field(compare=False, default=0.0)


class _PseudoCosts:
    """Per-variable objective degradation per unit of fractionality."""

    def __init__(self, nvars: int) -> None:
        self.down_sum = np.zeros(nvars)
        self.down_count = np.zeros(nvars)
        self.up_sum = np.zeros(nvars)
        self.up_count = np.zeros(nvars)

    def update(self, idx: int, up: bool, degradation: float, frac: float) -> None:
        """Record one observed branch outcome (child LP minus parent LP)."""
        if frac <= _INT_TOL:
            return
        per_unit = max(0.0, degradation) / frac
        if up:
            self.up_sum[idx] += per_unit
            self.up_count[idx] += 1.0
        else:
            self.down_sum[idx] += per_unit
            self.down_count[idx] += 1.0

    def select(self, x: np.ndarray, candidates: np.ndarray) -> Tuple[int, float]:
        """Pick the branching variable by the pseudo-cost product rule."""
        vals = x[candidates]
        fracs = vals - np.floor(vals)
        total_count = self.down_count.sum() + self.up_count.sum()
        if total_count == 0:
            # no history yet: fall back to most-fractional
            scores = np.minimum(fracs, 1.0 - fracs)
        else:
            avg = (self.down_sum.sum() + self.up_sum.sum()) / total_count
            avg = max(avg, 1e-6)
            down = np.where(
                self.down_count[candidates] > 0,
                self.down_sum[candidates] / np.maximum(self.down_count[candidates], 1),
                avg,
            )
            up = np.where(
                self.up_count[candidates] > 0,
                self.up_sum[candidates] / np.maximum(self.up_count[candidates], 1),
                avg,
            )
            scores = np.maximum(down * fracs, 1e-8) * np.maximum(
                up * (1.0 - fracs), 1e-8
            )
        best = int(np.argmax(scores))
        return int(candidates[best]), float(vals[best])


def solve_with_branch_bound(
    model: Model,
    time_limit: float | None = None,
    mip_gap: float | None = None,
    max_nodes: int = 200_000,
    verbose: bool = False,
    warm_start: bool = True,
    prepared: PreparedModel | None = None,
) -> MILPSolution:
    """Solve ``model`` with warm-started LP-based branch and bound.

    Parameters mirror :func:`repro.milp.scipy_backend.solve_with_scipy`;
    ``max_nodes`` bounds the search tree as a safety valve, ``warm_start``
    toggles pseudo-cost branching plus the primal heuristics, and the
    ``time_limit`` budget covers matrix lowering as well as the
    node loop.
    """
    start = time.perf_counter()
    if prepared is None:
        prepared = prepare_model(model, backend="branch-bound")

    if prepared.shortcut is not None:
        # copy before stamping: a PreparedModel may be reused across backends
        return dataclasses.replace(
            prepared.shortcut,
            backend="branch-bound",
            solve_time=time.perf_counter() - start,
        )

    form = prepared.form
    budget, exhausted = remaining_budget(time_limit, start)
    if exhausted:
        return MILPSolution(
            status=SolveStatus.TIME_LIMIT,
            solve_time=time.perf_counter() - start,
            backend="branch-bound",
            message="time limit exhausted during lowering (gap=inf)",
        )
    deadline = None if budget is None else time.perf_counter() + budget
    gap_target = 0.0 if mip_gap is None else float(mip_gap)

    integer_indices = np.flatnonzero(form.integrality > 0)
    split = split_matrix_form(form) if warm_start else None

    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = math.inf
    best_bound = -math.inf
    #: weakest bound discarded by gap-aware pruning (keeps the exit gap honest)
    pruned_bound = math.inf
    nodes_explored = 0
    counter = itertools.count()
    pseudo = _PseudoCosts(form.num_variables)
    timed_out = False

    def _gap_scale() -> float:
        """Denominator of the incumbent's relative gap (:func:`relative_gap`).

        The gap is measured on the user-facing objective, constant included,
        as :attr:`MILPSolution.gap` reports it; the lowering shifts the
        objective but not the difference to a bound.
        """
        return max(abs(prepared.user_bound(incumbent_obj)), GAP_EPS)

    def _prune_cut() -> float:
        """Objective level at which a subtree is not worth exploring.

        Warm mode discards subtrees that cannot improve the incumbent by more
        than the requested MIP gap — the contract of ``mip_gap`` — instead of
        only strictly-dominated ones; ``pruned_bound`` records what was cut so
        the reported bound never overstates what was proven.  Without a gap
        the cut keeps a 1e-9 tolerance; with one it is exactly the allowance,
        so a cut subtree never widens the gap past ``mip_gap``.
        """
        if not math.isfinite(incumbent_obj):
            return math.inf
        allowance = gap_target * _gap_scale() if warm_start else 0.0
        return incumbent_obj - max(allowance, 1e-9)

    # ------------------------------------------------------------------
    # root node
    # ------------------------------------------------------------------
    search_start = time.perf_counter()
    # integer variables take only integer values: round their bounds inward
    # once, so the rounding heuristic cannot clip onto a fractional bound
    var_lower = form.var_lb.astype(float).copy()
    var_upper = form.var_ub.astype(float).copy()
    var_lower[integer_indices] = np.ceil(var_lower[integer_indices] - _INT_TOL)
    var_upper[integer_indices] = np.floor(var_upper[integer_indices] + _INT_TOL)
    root_lower = var_lower.copy()
    root_upper = var_upper.copy()
    nodes_explored += 1
    root = _solve_lp_with_duals(form, split, root_lower, root_upper)
    if root is None:
        record_stage(
            "milp.search",
            time.perf_counter() - search_start,
            backend="branch-bound",
            nodes=nodes_explored,
        )
        return MILPSolution(
            status=SolveStatus.INFEASIBLE,
            solve_time=time.perf_counter() - start,
            node_count=nodes_explored,
            backend="branch-bound",
            message="LP relaxation infeasible",
        )
    root_obj, root_x, root_rc_lb, root_rc_ub = root
    best_bound = root_obj

    heap: List[_Node] = []

    fractional = _most_fractional(root_x, integer_indices)
    if fractional is None:
        incumbent_obj, incumbent_x = root_obj, root_x.copy()
    else:
        if warm_start:
            # primal heuristics: rounding, then depth-limited diving
            rounded = _try_round(form, root_x, integer_indices, var_lower, var_upper)
            if rounded is not None and rounded[0] < incumbent_obj:
                incumbent_obj, incumbent_x = rounded[0], rounded[1]
            dive = _dive(
                form, split, root_lower, root_upper, root_x,
                integer_indices, deadline,
            )
            if dive is not None and dive[0] < incumbent_obj:
                incumbent_obj, incumbent_x = dive[0], dive[1]
            # with an incumbent in hand, the root duals prove many integer
            # variables immovable (up to the allowed gap) — fix them for the
            # entire tree and account the cutoff in the proven bound
            if _reduced_cost_fix(
                root_obj, root_x, root_rc_lb, root_rc_ub,
                root_lower, root_upper, integer_indices, _prune_cut(),
            ):
                pruned_bound = min(pruned_bound, _prune_cut())
        _branch(
            heap, counter, root_obj, root_x, root_lower, root_upper,
            fractional if not warm_start else None,
            integer_indices, pseudo, warm_start,
        )

    # ------------------------------------------------------------------
    # best-first node loop
    # ------------------------------------------------------------------
    while heap:
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            break
        if nodes_explored >= max_nodes:
            timed_out = True
            break

        node = heapq.heappop(heap)
        if warm_start and node.priority >= _prune_cut():
            # parent bound already dominates the incumbent: prune without LP
            pruned_bound = min(pruned_bound, node.priority)
            continue
        nodes_explored += 1

        relaxation = _solve_lp_with_duals(form, split, node.lower, node.upper)
        if relaxation is None:
            continue  # infeasible subproblem
        obj, x, rc_lb, rc_ub = relaxation

        if warm_start and node.branch_idx >= 0:
            pseudo.update(
                node.branch_idx, node.branch_up, obj - node.priority, node.branch_frac
            )

        if obj >= _prune_cut():
            pruned_bound = min(pruned_bound, obj)
            continue  # pruned by bound

        fractional = _most_fractional(x, integer_indices)
        if fractional is None:
            # integral solution: new incumbent
            if obj < incumbent_obj:
                incumbent_obj = obj
                incumbent_x = x.copy()
            continue

        if warm_start:
            rounded = _try_round(form, x, integer_indices, var_lower, var_upper)
            if rounded is not None and rounded[0] < incumbent_obj:
                incumbent_obj, incumbent_x = rounded[0], rounded[1]
            # subtree-local reduced-cost fixing against the pruning cutoff
            if _reduced_cost_fix(
                obj, x, rc_lb, rc_ub,
                node.lower, node.upper, integer_indices, _prune_cut(),
            ):
                pruned_bound = min(pruned_bound, _prune_cut())

        _branch(
            heap, counter, obj, x, node.lower, node.upper,
            fractional if not warm_start else None,
            integer_indices, pseudo, warm_start,
        )

        # optional early stop on gap (signed: dominated open nodes close it)
        if heap and incumbent_obj < math.inf:
            open_bound = heap[0].priority
            if open_bound > -math.inf:
                gap = (incumbent_obj - open_bound) / _gap_scale()
                if gap <= gap_target:
                    break

    elapsed = time.perf_counter() - start
    record_stage(
        "milp.search",
        time.perf_counter() - search_start,
        backend="branch-bound",
        nodes=nodes_explored,
    )

    # the proven bound is the weakest open or gap-pruned node (or the
    # incumbent itself when the tree closed completely)
    if heap:
        best_bound = min(min(n.priority for n in heap), pruned_bound, incumbent_obj)
    elif not timed_out:
        best_bound = min(pruned_bound, incumbent_obj)

    if incumbent_x is None:
        status = SolveStatus.TIME_LIMIT if timed_out else SolveStatus.INFEASIBLE
        bound = prepared.user_bound(best_bound) if math.isfinite(best_bound) else float("nan")
        return MILPSolution(
            status=status,
            bound=bound,
            solve_time=elapsed,
            node_count=nodes_explored,
            backend="branch-bound",
            message=(
                "no incumbent found (gap=inf)"
                if timed_out
                else "search exhausted without incumbent"
            ),
        )

    proven_optimal = not timed_out and best_bound >= incumbent_obj - 1e-9

    values = prepared.restore_values(incumbent_x)
    objective = model.objective_value(values)
    user_bound = prepared.user_bound(best_bound)
    gap = relative_gap(objective, user_bound)

    return MILPSolution(
        status=SolveStatus.OPTIMAL if proven_optimal else SolveStatus.FEASIBLE,
        objective=objective,
        values=values,
        bound=user_bound,
        solve_time=elapsed,
        node_count=nodes_explored,
        backend="branch-bound",
        message=(
            "optimal"
            if proven_optimal
            else f"stopped early with incumbent (gap={gap:.4%})"
        ),
    )


# ----------------------------------------------------------------------
# node machinery
# ----------------------------------------------------------------------
def _branch(
    heap: List[_Node],
    counter,
    obj: float,
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    fractional: Optional[Tuple[int, float]],
    integer_indices: np.ndarray,
    pseudo: _PseudoCosts,
    warm_start: bool,
) -> None:
    """Push the two children of a node onto the heap."""
    if fractional is None:
        candidates = _fractional_indices(x, integer_indices)
        idx, value = pseudo.select(x, candidates)
    else:
        idx, value = fractional
    floor_val = math.floor(value + _INT_TOL)
    frac = value - floor_val

    down = _Node(
        priority=obj, count=next(counter),
        lower=lower.copy(), upper=upper.copy(),
        branch_idx=idx, branch_up=False, branch_frac=frac,
    )
    down.upper[idx] = floor_val
    up = _Node(
        priority=obj, count=next(counter),
        lower=lower.copy(), upper=upper.copy(),
        branch_idx=idx, branch_up=True, branch_frac=1.0 - frac,
    )
    up.lower[idx] = floor_val + 1
    heapq.heappush(heap, down)
    heapq.heappush(heap, up)


def _solve_lp(
    form: MatrixForm,
    split: Optional[SplitForm],
    lower: np.ndarray,
    upper: np.ndarray,
) -> Optional[Tuple[float, np.ndarray]]:
    """Solve the LP relaxation restricted to the node's bounds.

    With ``split`` provided (warm-start mode) the constraint blocks are reused
    across nodes and only the bound arrays differ; the legacy path rebuilds
    the split per node, reproducing the pre-optimization cost profile.
    """
    solved = _solve_lp_with_duals(form, split, lower, upper)
    if solved is None:
        return None
    obj, x, _, _ = solved
    return obj, x


def _solve_lp_with_duals(
    form: MatrixForm,
    split: Optional[SplitForm],
    lower: np.ndarray,
    upper: np.ndarray,
) -> Optional[Tuple[float, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]]:
    """Node LP returning the bound-dual marginals for reduced-cost fixing."""
    if np.any(lower > upper + 1e-12):
        return None
    if split is None:
        split = split_matrix_form(form)
    result = linprog(
        c=form.objective,
        A_ub=split.a_ub,
        b_ub=split.b_ub,
        A_eq=split.a_eq,
        b_eq=split.b_eq,
        bounds=np.column_stack((lower, upper)),
        method="highs",
    )
    if not result.success:
        return None
    rc_lower = getattr(getattr(result, "lower", None), "marginals", None)
    rc_upper = getattr(getattr(result, "upper", None), "marginals", None)
    return float(result.fun), np.asarray(result.x), rc_lower, rc_upper


def _reduced_cost_fix(
    obj: float,
    x: np.ndarray,
    rc_lower: Optional[np.ndarray],
    rc_upper: Optional[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    integer_indices: np.ndarray,
    cut: float,
) -> int:
    """Fix integer variables whose reduced cost proves they cannot move.

    At an LP optimum, moving a nonbasic variable one unit off its bound
    degrades the objective by at least its reduced cost.  When
    ``obj + rc > cut`` every solution with the variable off its bound lies
    above the pruning cutoff (the incumbent minus the allowed MIP gap, the
    same level at which whole subtrees are discarded), so the variable can
    be fixed at its bound for the subtree.  The caller must fold ``cut``
    into its pruned-bound bookkeeping whenever fixing occurred, keeping the
    reported dual bound honest.  Bounds are tightened in place; returns the
    number of variables fixed.
    """
    if rc_lower is None or rc_upper is None or not math.isfinite(cut):
        return 0
    slack = cut - obj
    if slack < 0:
        return 0
    idx = integer_indices[upper[integer_indices] - lower[integer_indices] > 0.5]
    if idx.size == 0:
        return 0
    vals = x[idx]
    at_lb = (vals <= lower[idx] + _INT_TOL) & (rc_lower[idx] > slack)
    at_ub = (vals >= upper[idx] - _INT_TOL) & (-rc_upper[idx] > slack)
    fix_lb = idx[at_lb]
    fix_ub = idx[at_ub]
    upper[fix_lb] = lower[fix_lb]
    lower[fix_ub] = upper[fix_ub]
    return int(fix_lb.size + fix_ub.size)


def _fractional_indices(x: np.ndarray, integer_indices: np.ndarray) -> np.ndarray:
    """Integer variables whose LP value is fractional."""
    vals = x[integer_indices]
    frac = np.abs(vals - np.round(vals))
    return integer_indices[frac > _INT_TOL]


def _most_fractional(
    x: np.ndarray, integer_indices: np.ndarray
) -> Optional[Tuple[int, float]]:
    """Index and value of the integer variable farthest from integrality."""
    if integer_indices.size == 0:
        return None
    vals = x[integer_indices]
    frac = np.abs(vals - np.round(vals))
    worst = int(np.argmax(frac))
    if frac[worst] <= _INT_TOL:
        return None
    return int(integer_indices[worst]), float(vals[worst])


# ----------------------------------------------------------------------
# primal heuristics
# ----------------------------------------------------------------------
def _try_round(
    form: MatrixForm,
    x: np.ndarray,
    integer_indices: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Optional[Tuple[float, np.ndarray]]:
    """Round the LP solution to the nearest integers and test feasibility.

    ``lower``/``upper`` are the variable bounds with integer bounds rounded
    inward, so clipping keeps the rounded integers integral.
    """
    if integer_indices.size == 0:
        return None
    xr = x.copy()
    xr[integer_indices] = np.round(xr[integer_indices])
    np.clip(xr, lower, upper, out=xr)
    activity = form.constraint_matrix @ xr
    tol = 1e-7
    if np.all(activity >= form.constraint_lb - tol) and np.all(
        activity <= form.constraint_ub + tol
    ):
        return float(form.objective @ xr), xr
    return None


def _dive(
    form: MatrixForm,
    split: Optional[SplitForm],
    lower: np.ndarray,
    upper: np.ndarray,
    x: np.ndarray,
    integer_indices: np.ndarray,
    deadline: Optional[float],
) -> Optional[Tuple[float, np.ndarray]]:
    """Depth-limited fix-and-propagate dive from the (root) LP solution.

    Each round fixes every integer variable already close to an integer plus
    the most fractional one, then re-solves; on an infeasible round the
    near-integral fixes are rolled back and only the single most fractional
    variable is flipped to its other neighbour.  Bounded by
    :data:`_MAX_DIVE_ROUNDS` rounds (at most two LP solves each), so a failed
    dive costs far less than the tree nodes an incumbent saves.
    """
    lower = lower.copy()
    upper = upper.copy()
    current = x
    for _ in range(_MAX_DIVE_ROUNDS):
        if deadline is not None and time.perf_counter() > deadline:
            return None
        fractional = _most_fractional(current, integer_indices)
        if fractional is None:
            return float(form.objective @ current), current
        idx, value = fractional

        # fix-and-propagate: everything within 0.1 of an integer, plus the
        # most fractional variable rounded to its nearest value
        vals = current[integer_indices]
        near = integer_indices[np.abs(vals - np.round(vals)) <= 0.1]
        trial_lower, trial_upper = lower.copy(), upper.copy()
        rounded = np.clip(
            np.round(current[near]), trial_lower[near], trial_upper[near]
        )
        trial_lower[near] = rounded
        trial_upper[near] = rounded
        target = float(np.clip(round(value), lower[idx], upper[idx]))
        trial_lower[idx] = target
        trial_upper[idx] = target
        relaxation = _solve_lp(form, split, trial_lower, trial_upper)

        if relaxation is None:
            # roll the aggressive fixes back; flip only the branching value
            flipped = math.floor(value) + math.ceil(value) - target
            trial_lower, trial_upper = lower.copy(), upper.copy()
            flipped = float(np.clip(flipped, lower[idx], upper[idx]))
            trial_lower[idx] = flipped
            trial_upper[idx] = flipped
            relaxation = _solve_lp(form, split, trial_lower, trial_upper)
            if relaxation is None:
                return None

        lower, upper = trial_lower, trial_upper
        _, current = relaxation
    fractional = _most_fractional(current, integer_indices)
    if fractional is None:
        return float(form.objective @ current), current
    return None
