"""Relocation-aware greedy constructor.

The HO mode with relocation-as-a-constraint needs a heuristic seed that
already contains positions for every requested free-compatible area
(Section II.A).  A relocation-oblivious heuristic frequently places a region
so that no compatible space remains; this constructor therefore interleaves
the two decisions:

1. regions are processed scarce-resource-first;
2. for each region the candidate rectangles are tried in increasing
   covered-frames order;
3. a candidate is accepted only if the requested number of free-compatible
   areas can still be reserved geometrically next to it — the reserved areas
   are then blocked for the regions that follow.

Besides seeding HO, this is a useful baseline on its own ("greedy PA"): it
shows how far a purely constructive approach gets on the relocation-aware
problem, which the ablation benchmark compares against the MILP.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.baselines.packing import by_frames, candidate_orders, feasible_rects, region_anchors
from repro.floorplan.candidates import Candidates
from repro.floorplan.geometry import Rect
from repro.floorplan.placement import Floorplan, RegionPlacement
from repro.floorplan.problem import FloorplanProblem
from repro.relocation.compatibility import (
    enumerate_free_compatible_areas,
    select_disjoint_areas,
)
from repro.relocation.spec import RelocationSpec

#: How many candidate rectangles are tried (in increasing frame order) for a
#: region that has relocation requests; keeps the reservation search bounded
#: on large devices.
MAX_CANDIDATES_WITH_COPIES = 200


def relocation_aware_greedy(
    problem: FloorplanProblem,
    spec: RelocationSpec | None = None,
    candidates: Mapping[str, Candidates] | None = None,
) -> Optional[Floorplan]:
    """Greedy construction of a floorplan with reserved free-compatible areas.

    Parameters
    ----------
    problem:
        The floorplanning instance.
    spec:
        Relocation requests; ``None`` or an empty spec degenerates into a
        minimal-frames greedy placer.
    candidates:
        Optional per-region candidate rectangles
        (:func:`~repro.floorplan.candidates.enumerate_areas`), shared with
        the MILP build of the same solve; enumerated here when omitted.

    Returns
    -------
    Floorplan or None
        ``None`` when no placement satisfying every *hard* request was found;
        soft requests that cannot be served are simply dropped from the
        result (their areas are absent, mirroring ``v[c] = 1``).
    """
    spec = spec or RelocationSpec.empty()
    start = time.perf_counter()
    device = problem.device
    anchors = region_anchors(device, problem.regions, candidates)

    # Orders are explored with a "fail-first" retry: when a region cannot be
    # served, it is promoted to the front of the order and the construction
    # restarts, so regions that turn out to be tightly constrained grab their
    # space (and their copies) before the flexible ones fragment it.
    tried: set = set()
    queue: List[Tuple[str, ...]] = []
    for regions in candidate_orders(device, problem.regions):
        signature = tuple(region.name for region in regions)
        if signature not in tried:
            tried.add(signature)
            queue.append(signature)

    max_attempts = max(12, 3 * len(problem.regions))
    attempts = 0
    while queue and attempts < max_attempts:
        signature = queue.pop(0)
        attempts += 1
        regions = [problem.region_by_name(name) for name in signature]
        result, failing = _attempt_order(problem, spec, regions, anchors)
        if result is not None:
            result.solve_time = time.perf_counter() - start
            return result
        if failing is not None and failing != signature[0]:
            promoted = (failing,) + tuple(n for n in signature if n != failing)
            if promoted not in tried:
                tried.add(promoted)
                queue.insert(0, promoted)

    return None


def _attempt_order(
    problem: FloorplanProblem,
    spec: RelocationSpec,
    regions: List,
    anchors: Dict[str, Candidates],
) -> Tuple[Optional[Floorplan], Optional[str]]:
    """One greedy pass over ``regions``; returns (floorplan, failing region)."""
    partition = problem.partition
    placements: Dict[str, Rect] = {}
    free_areas: Dict[str, Tuple[Rect, str]] = {}
    occupied: List[Rect] = []

    for region in regions:
        request = spec.request_for(region.name) if region.name in spec else None
        copies = request.copies if request is not None else 0

        candidates = by_frames(feasible_rects(anchors[region.name], occupied))
        if copies:
            candidates = candidates.subset(slice(MAX_CANDIDATES_WITH_COPIES))

        chosen_rect: Optional[Rect] = None
        chosen_copies: List[Rect] = []
        for i in range(len(candidates)):
            rect = candidates.rect(i)
            if copies:
                compatible = enumerate_free_compatible_areas(
                    partition, rect, occupied + [rect]
                )
                reserved = select_disjoint_areas(compatible, copies)
                if len(reserved) < copies and request is not None and request.hard:
                    continue
            else:
                reserved = []
            chosen_rect = rect
            chosen_copies = reserved
            break

        if chosen_rect is None:
            return None, region.name

        placements[region.name] = chosen_rect
        occupied.append(chosen_rect)
        for index, copy_rect in enumerate(chosen_copies, start=1):
            free_areas[spec.area_name(region.name, index)] = (copy_rect, region.name)
            occupied.append(copy_rect)

    floorplan = Floorplan(problem=problem, solver_status="relocation-greedy")
    for name, rect in placements.items():
        floorplan.placements[name] = RegionPlacement(name=name, rect=rect)
    for name, (rect, region_name) in free_areas.items():
        floorplan.free_areas[name] = RegionPlacement(
            name=name, rect=rect, compatible_with=region_name
        )
    return floorplan, None
