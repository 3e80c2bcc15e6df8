"""Shared helpers for the greedy baseline floorplanners."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.device.grid import FPGADevice
from repro.device.resources import ResourceVector
from repro.floorplan.candidates import Candidates, enumerate_areas
from repro.floorplan.geometry import Rect
from repro.floorplan.milp_builder import AreaSpec
from repro.floorplan.problem import Region


def region_anchors(
    device: FPGADevice,
    regions: Sequence[Region],
    candidates: Mapping[str, Candidates] | None = None,
) -> Dict[str, Candidates]:
    """The narrowest feasible rectangle of each region at every anchor.

    An anchor is a ``(x, y, h)`` triple.  The rectangles are selected from
    the regions' ``candidates`` (as
    :func:`~repro.floorplan.candidates.enumerate_areas` lists them, and
    enumerated here when not given) and ordered by column, decreasing height,
    row — the first-fit scan order.  A wider rectangle at the same anchor
    contains the narrowest one, so whatever blocks the narrowest blocks it
    too: selecting per anchor before masking the occupied cells
    (:func:`feasible_rects`) gives the rectangles a width-growing scan over
    the free cells would give.
    """
    if candidates is None:
        candidates = enumerate_areas(device, [AreaSpec.for_region(region) for region in regions])
    anchors: Dict[str, Candidates] = {}
    for region in regions:
        found = candidates[region.name]
        found = found.subset(np.lexsort((found.w, found.y, -found.h, found.x)))
        narrowest = np.ones(len(found), dtype=bool)
        narrowest[1:] = (np.diff(found.x) != 0) | (np.diff(found.h) != 0) | (np.diff(found.y) != 0)
        anchors[region.name] = found.subset(narrowest)
    return anchors


def feasible_rects(
    anchors: Candidates, occupied: Sequence[Rect], align_rows: bool = False
) -> Candidates:
    """The anchors' rectangles that overlap none of ``occupied``, in scan order.

    ``align_rows`` keeps only power-of-two heights anchored at a row that is a
    multiple of the height (the "kernel tessellation" style alignment used by
    the reconfiguration-centric baseline).
    """
    x, y, w, h = anchors.x, anchors.y, anchors.w, anchors.h
    keep = np.ones(len(anchors), dtype=bool)
    if align_rows:
        keep &= ((h & (h - 1)) == 0) & (y % h == 0)
    for rect in occupied:
        keep &= (x > rect.col_end) | (x + w <= rect.col) | (y > rect.row_end) | (y + h <= rect.row)
    return anchors.subset(keep)


def by_frames(rects: Candidates) -> Candidates:
    """``rects`` ordered by covered frames, then column, row, decreasing height."""
    return rects.subset(np.lexsort((-rects.h, rects.y, rects.x, rects.frames)))


def best_rect(
    anchors: Candidates, occupied: Sequence[Rect], align_rows: bool = False
) -> Rect | None:
    """The feasible rectangle with the fewest covered frames (ties: leftmost)."""
    rects = by_frames(feasible_rects(anchors, occupied, align_rows))
    return rects.rect(0) if len(rects) else None


def first_rect(anchors: Candidates, occupied: Sequence[Rect]) -> Rect | None:
    """The first feasible rectangle in scan order (true first-fit)."""
    rects = feasible_rects(anchors, occupied)
    return rects.rect(0) if len(rects) else None


def sort_regions_by_demand(regions: Sequence[Region]) -> List[Region]:
    """Regions sorted by decreasing total tile demand (big rocks first)."""
    return sorted(regions, key=lambda r: r.total_tiles, reverse=True)


def sort_regions_by_scarcity(
    device: FPGADevice, regions: Sequence[Region]
) -> List[Region]:
    """Regions sorted so that those needing the scarcest resources go first.

    Scarcity of a resource type is the aggregate demand divided by the device
    capacity; a region's key is the highest scarcity among the types it needs.
    Placing scarce-resource regions first keeps the few BRAM/DSP columns from
    being swallowed by large CLB-dominated regions — the failure mode of a
    plain biggest-first order on column-sparse devices.
    """
    capacity = device.total_resources()
    demand = ResourceVector.zero()
    for region in regions:
        demand = demand + region.requirements
    scarcity = {
        rtype: (demand.get(rtype) / capacity.get(rtype)) if capacity.get(rtype) else 1.0
        for rtype, _ in demand
    }

    def key(region: Region) -> tuple:
        needed = [scarcity[rtype] for rtype, count in region.requirements if count > 0]
        return (max(needed) if needed else 0.0, region.total_tiles)

    return sorted(regions, key=key, reverse=True)


def candidate_orders(device: FPGADevice, regions: Sequence[Region]) -> List[List[Region]]:
    """Placement orders worth trying, most promising first, without duplicates."""
    orders = [
        sort_regions_by_scarcity(device, regions),
        sort_regions_by_demand(regions),
        list(regions),
    ]
    unique: List[List[Region]] = []
    seen: set = set()
    for order in orders:
        signature = tuple(region.name for region in order)
        if signature not in seen:
            seen.add(signature)
            unique.append(order)
    return unique
