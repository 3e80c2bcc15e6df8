"""Shared helpers for the greedy baseline floorplanners."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.device.grid import FPGADevice
from repro.device.resources import ResourceVector
from repro.floorplan.geometry import Rect
from repro.floorplan.problem import Region


def rect_resources(device: FPGADevice, rect: Rect) -> ResourceVector:
    """Resources covered by a rectangle (histogram-based, one grid pass)."""
    histogram = device.tile_type_histogram(rect.col, rect.row, rect.width, rect.height)
    total = ResourceVector.zero()
    for count, tile_type in zip(histogram, device.tile_type_list):
        if count:
            total = total + tile_type.resources * count
    return total


def rect_frames(device: FPGADevice, rect: Rect) -> int:
    """Configuration frames covered by a rectangle."""
    histogram = device.tile_type_histogram(rect.col, rect.row, rect.width, rect.height)
    return sum(
        count * tile_type.frames
        for count, tile_type in zip(histogram, device.tile_type_list)
    )


def iter_feasible_rects(
    device: FPGADevice,
    region: Region,
    occupied: Sequence[Rect],
    heights: Iterable[int] | None = None,
    align_rows: bool = False,
) -> Iterator[Rect]:
    """Enumerate feasible rectangles for a region.

    Candidates are generated column-first (left to right), then by row, then by
    height; for each anchor the width grows until the requirement is met, so
    the yielded rectangle is the narrowest satisfying one at that anchor.

    Parameters
    ----------
    heights:
        Candidate heights to try (defaults to every height from the device
        height down to 1).
    align_rows:
        Restrict anchors to rows that are multiples of the candidate height
        (the "kernel tessellation" style alignment used by the
        reconfiguration-centric baseline).
    """
    height_options = list(heights) if heights is not None else list(range(device.height, 0, -1))
    # Cells a candidate may not cover (forbidden or occupied) and the region's
    # resource types, as per-column row prefix sums.  A (row, height) band
    # then reduces to one sum per column, and growing a candidate by one
    # column costs a few additions instead of a pass over the tile grid.
    blocked = device.forbidden_mask()
    for rect in occupied:
        cols = slice(max(rect.col, 0), max(rect.col_end + 1, 0))
        rows = slice(max(rect.row, 0), max(rect.row_end + 1, 0))
        blocked[cols, rows] = True
    type_grid = device.type_index_grid()
    layers = [blocked.astype(np.int64)] + [
        np.array([t.resources.get(rtype) for t in device.tile_type_list], dtype=np.int64)[type_grid]
        for rtype, _ in region.requirements
    ]
    prefixes = [np.pad(layer.cumsum(axis=1), ((0, 0), (1, 0))) for layer in layers]
    required = [count for _, count in region.requirements]
    max_width = region.max_width or device.width
    bands: Dict[Tuple[int, int], List[List[int]]] = {}
    for col in range(device.width):
        for h in height_options:
            if h <= 0 or h > device.height:
                continue
            if region.max_height is not None and h > region.max_height:
                continue  # no rectangle of this height satisfies the region
            row_candidates = (
                range(0, device.height - h + 1, h)
                if align_rows
                else range(0, device.height - h + 1)
            )
            for row in row_candidates:
                band = bands.get((row, h))
                if band is None:
                    band = [(p[:, row + h] - p[:, row]).tolist() for p in prefixes]
                    bands[(row, h)] = band
                blocked_cols, supply_cols = band[0], band[1:]
                supply = [0] * len(required)
                for width in range(1, min(device.width - col, max_width) + 1):
                    c = col + width - 1
                    if blocked_cols[c]:
                        break  # growing wider keeps the conflict
                    for k, cols in enumerate(supply_cols):
                        supply[k] += cols[c]
                    if all(have >= need for have, need in zip(supply, required)):
                        yield Rect(col, row, width, h)
                        break  # wider rectangles only add waste at this anchor


def best_rect(
    device: FPGADevice,
    region: Region,
    occupied: Sequence[Rect],
    heights: Iterable[int] | None = None,
    align_rows: bool = False,
) -> Rect | None:
    """The feasible rectangle with the fewest covered frames (ties: leftmost)."""
    best: Rect | None = None
    best_key: tuple | None = None
    for rect in iter_feasible_rects(device, region, occupied, heights, align_rows):
        key = (rect_frames(device, rect), rect.col, rect.row)
        if best_key is None or key < best_key:
            best, best_key = rect, key
    return best


def first_rect(
    device: FPGADevice,
    region: Region,
    occupied: Sequence[Rect],
    heights: Iterable[int] | None = None,
) -> Rect | None:
    """The first feasible rectangle in scan order (true first-fit)."""
    for rect in iter_feasible_rects(device, region, occupied, heights):
        return rect
    return None


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
