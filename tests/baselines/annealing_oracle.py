"""Full-recompute reference of the annealing baseline's cost.

:class:`CostEvaluator` re-measures every region, overlap pair and connection
on each call: the readable specification of the penalized cost that
:mod:`repro.baselines.annealing` evaluates incrementally.  The equivalence
tests run the annealer on it (by standing it in for the incremental
evaluator) and require identical placements, costs and statuses.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.annealing import AnnealingOptions
from repro.floorplan.geometry import Rect, manhattan
from repro.floorplan.placement import rect_frames, rect_resources
from repro.floorplan.problem import FloorplanProblem, Region


class CostEvaluator:
    """Penalized cost of a (possibly infeasible) placement state.

    Every call re-evaluates the whole state.  It defines the semantics that
    :class:`~repro.baselines.annealing._IncrementalCostEvaluator` must
    reproduce exactly, and speaks the same annealer protocol, so it can stand
    in for it inside :func:`~repro.baselines.annealing.annealing_floorplan`.
    """

    def __init__(self, problem: FloorplanProblem, options: AnnealingOptions) -> None:
        self.problem = problem
        self.options = options
        self.device = problem.device
        self.regions: Dict[str, Region] = {r.name: r for r in problem.regions}
        self.required_frames = {
            r.name: problem.required_frames(r) for r in problem.regions
        }

    # ------------------------------------------------------------------
    def cost(self, state: Dict[str, Rect]) -> float:
        options = self.options
        overlap = 0
        rects = list(state.items())
        for i, (_, first) in enumerate(rects):
            for _, second in rects[i + 1 :]:
                overlap += first.intersection_area(second)

        forbidden = 0
        deficit_total = 0
        wasted = 0
        for name, rect in state.items():
            region = self.regions[name]
            forbidden += self.device.forbidden_cell_count(rect.col, rect.row, rect.width, rect.height)
            covered = rect_resources(self.device, rect)
            deficit_total += covered.deficit(region.requirements).total
            wasted += max(0, rect_frames(self.device, rect) - self.required_frames[name])

        wirelength = 0.0
        for connection in self.problem.connections:
            centers = []
            for endpoint in connection.endpoints():
                if endpoint in state:
                    centers.append(state[endpoint].center)
                else:
                    pin = self.problem.pin_by_name(endpoint)
                    centers.append(pin.center)
            wirelength += connection.weight * manhattan(centers[0], centers[1])

        return (
            options.overlap_penalty * overlap
            + options.forbidden_penalty * forbidden
            + options.deficit_penalty * deficit_total
            + options.wasted_frame_weight * wasted
            + options.wirelength_weight * wirelength
        )

    def is_feasible(self, state: Dict[str, Rect]) -> bool:
        rects = list(state.values())
        for i, first in enumerate(rects):
            for second in rects[i + 1 :]:
                if first.overlaps(second):
                    return False
        for name, rect in state.items():
            region = self.regions[name]
            if not rect.within(self.device.width, self.device.height):
                return False
            if self.device.forbidden_cell_count(rect.col, rect.row, rect.width, rect.height):
                return False
            if not rect_resources(self.device, rect).covers(region.requirements):
                return False
        return True

    # -- annealer protocol (full re-evaluation on every call) -----------
    def reset(self, state: Dict[str, Rect]) -> float:
        return self.cost(state)

    def propose(self, name: str, new_rect: Rect, state: Dict[str, Rect]) -> float:
        return self.cost(state)

    def commit(self) -> None:
        pass

    def reject(self) -> None:
        pass

    def feasible(self, state: Dict[str, Rect]) -> bool:
        return self.is_feasible(state)
