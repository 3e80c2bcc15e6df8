"""First-fit greedy floorplanner.

This is the simplest complete placer in the repository: regions are processed
in decreasing resource demand and each one takes the first feasible rectangle
in column-major scan order.  Its purpose is to provide a fast feasible seed
for the HO mode and a lower bar for the baseline comparisons — it makes no
attempt to minimize wasted frames or wirelength.
"""

from __future__ import annotations

import time
from typing import List, Mapping, Optional, Sequence

from repro.baselines.packing import candidate_orders, first_rect, region_anchors
from repro.floorplan.candidates import Candidates
from repro.floorplan.geometry import Rect
from repro.floorplan.placement import Floorplan, RegionPlacement
from repro.floorplan.problem import FloorplanProblem


def first_fit_floorplan(
    problem: FloorplanProblem,
    region_order: Sequence[str] | None = None,
    candidates: Mapping[str, Candidates] | None = None,
) -> Optional[Floorplan]:
    """Place every region with a first-fit scan.

    Parameters
    ----------
    problem:
        The instance to place.
    region_order:
        Optional explicit placement order (region names); defaults to
        decreasing resource demand.
    candidates:
        Optional per-region candidate rectangles
        (:func:`~repro.floorplan.candidates.enumerate_areas`), shared with
        the MILP build of the same solve; enumerated here when omitted.

    Returns
    -------
    Floorplan or None
        ``None`` when the greedy scan fails to place some region (which does
        not imply the instance is infeasible — the MILP may still succeed).
    """
    start = time.perf_counter()
    device = problem.device
    if region_order is not None:
        orders = [[problem.region_by_name(name) for name in region_order]]
    else:
        orders = candidate_orders(device, problem.regions)

    anchors = region_anchors(device, problem.regions, candidates)
    for regions in orders:
        occupied: List[Rect] = []
        floorplan = Floorplan(problem=problem, solver_status="first-fit")
        failed = False
        for region in regions:
            rect = first_rect(anchors[region.name], occupied)
            if rect is None:
                failed = True
                break
            occupied.append(rect)
            floorplan.placements[region.name] = RegionPlacement(name=region.name, rect=rect)
        if not failed:
            floorplan.solve_time = time.perf_counter() - start
            return floorplan
    return None
