"""Architecture-aware greedy tessellation baseline (reference [8]).

Vipin & Fahmy's reconfiguration-centric floorplanner ("Columnar Kernel
Tessellation") is not available as open source; Table II of the paper only
uses its wasted-frame count on the SDR design.  This module implements a
greedy baseline with the same two defining characteristics:

* **architecture aware** — candidate slots follow the columnar resource
  layout and the slot chosen for a region is the one covering the fewest
  configuration frames (i.e. the smallest bitstream);
* **reconfiguration centric** — slots are tessellated: their heights are
  restricted to powers of two and anchored at multiples of that height, so
  that every slot is aligned to reconfiguration-friendly boundaries.  This
  alignment is what makes the heuristic waste more frames than the exact MILP
  of [10], reproducing the qualitative gap of Table II.
"""

from __future__ import annotations

import time
from typing import List, Mapping, Optional, Sequence

from repro.baselines.packing import best_rect, candidate_orders, region_anchors
from repro.floorplan.candidates import Candidates
from repro.floorplan.geometry import Rect
from repro.floorplan.placement import Floorplan, RegionPlacement
from repro.floorplan.problem import FloorplanProblem


def tessellation_floorplan(
    problem: FloorplanProblem,
    region_order: Sequence[str] | None = None,
    align_rows: bool = True,
    candidates: Mapping[str, Candidates] | None = None,
) -> Optional[Floorplan]:
    """Place every region on tessellated, power-of-two-height slots.

    Parameters
    ----------
    problem:
        The instance to place.
    region_order:
        Optional explicit placement order; defaults to decreasing demand.
    align_rows:
        Keep the kernel alignment (the defining restriction of the baseline);
        disabling it turns the heuristic into an unrestricted minimal-frames
        greedy packer, which the ablation benchmark uses for comparison.
    candidates:
        Optional per-region candidate rectangles
        (:func:`~repro.floorplan.candidates.enumerate_areas`), shared with
        the MILP build of the same solve; enumerated here when omitted.

    Returns
    -------
    Floorplan or None
        ``None`` if some region cannot be placed under the tessellation
        restrictions.
    """
    start = time.perf_counter()
    device = problem.device
    if region_order is not None:
        orders = [[problem.region_by_name(name) for name in region_order]]
    else:
        orders = candidate_orders(device, problem.regions)

    anchors = region_anchors(device, problem.regions, candidates)
    floorplan: Optional[Floorplan] = None
    for regions in orders:
        occupied: List[Rect] = []
        candidate = Floorplan(problem=problem, solver_status="tessellation")
        failed = False
        for region in regions:
            rect = best_rect(anchors[region.name], occupied, align_rows)
            if rect is None and align_rows:
                # fall back to unaligned slots rather than failing outright; the
                # alignment preference is a heuristic, not a hard requirement
                rect = best_rect(anchors[region.name], occupied)
            if rect is None:
                failed = True
                break
            occupied.append(rect)
            candidate.placements[region.name] = RegionPlacement(name=region.name, rect=rect)
        if not failed:
            floorplan = candidate
            break
    if floorplan is None:
        return None
    floorplan.solve_time = time.perf_counter() - start
    return floorplan
