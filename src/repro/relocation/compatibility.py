"""Area compatibility predicates (Definitions .1 and .2).

Two areas are *compatible* when they have the same shape, size and relative
positioning of tiles of the same type; an area is *free-compatible* with
respect to a region when it is compatible and does not overlap any other
placed area or forbidden area.

On a columnar-partitioned device the tile type of a cell depends only on its
column, so compatibility of two equally-sized rectangles reduces to comparing
the column-type sequences of their column ranges.
:func:`enumerate_free_compatible_areas` therefore finds every free-compatible
area of a region in one numpy pass over the positions of a rectangle of the
region's shape, as the conjunction of three masks:

* no forbidden cell — the window sums of the forbidden layer of the
  summed-area tables :func:`~repro.floorplan.candidates.enumerate_candidates`
  uses;
* the region's column-type sequence — the partition's interned sequence ids,
  which also key the MILP's relocation signatures
  (:func:`~repro.floorplan.candidates.signature_keys`);
* no overlap with an occupied rectangle or the region itself — one slice
  assignment per rectangle.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.device.partition import ColumnarPartition
from repro.floorplan.candidates import forbidden_free_windows
from repro.floorplan.geometry import Rect


def areas_compatible(partition: ColumnarPartition, a: Rect, b: Rect) -> bool:
    """Definition .2's compatibility core: same shape, size and tile layout.

    Both rectangles must lie inside the device; the relative positioning of
    tile types is compared cell by cell (via the per-column effective type of
    the columnar partition).
    """
    if a.width != b.width or a.height != b.height:
        return False
    if not a.within(partition.width, partition.height):
        return False
    if not b.within(partition.width, partition.height):
        return False
    for offset in range(a.width):
        if partition.column_type(a.col + offset) != partition.column_type(b.col + offset):
            return False
    return True


def enumerate_free_compatible_areas(
    partition: ColumnarPartition,
    region_rect: Rect,
    occupied: Sequence[Rect] = (),
) -> List[Rect]:
    """Enumerate every free-compatible area for a placed region.

    Parameters
    ----------
    partition:
        Columnar partition of the device.
    region_rect:
        Rectangle currently assigned to the region; it must lie inside the
        device.  Its own position is never reported (a relocation target must
        differ from the source).
    occupied:
        Rectangles that candidates must not overlap (typically all current
        placements; the region's own rectangle is handled automatically).

    Returns
    -------
    list of Rect
        Candidates ordered left-to-right then bottom-to-top.  Note that the
        returned candidates may overlap *each other*; greedy selection of a
        mutually disjoint subset is done by the callers
        (:class:`repro.floorplan.ho.HOSeeder`, the run-time manager).
    """
    if not region_rect.within(partition.width, partition.height):
        raise ValueError(f"rectangle {region_rect} lies outside the device")
    w, h = region_rect.width, region_rect.height
    sequences = partition.sequence_ids[: partition.width - w + 1, w]
    free = forbidden_free_windows(partition.device, w, h)
    free &= (sequences == sequences[region_rect.col])[:, None]
    for rect in (*occupied, region_rect):
        # windows at (x, y) with x in (col - w, col_end], y in (row - h, row_end]
        free[
            max(rect.col - w + 1, 0) : max(rect.col_end + 1, 0),
            max(rect.row - h + 1, 0) : max(rect.row_end + 1, 0),
        ] = False
    cols, rows = np.nonzero(free)
    return [Rect(col, row, w, h) for col, row in zip(cols.tolist(), rows.tolist())]


def select_disjoint_areas(candidates: Sequence[Rect], count: int) -> List[Rect]:
    """Greedily pick up to ``count`` mutually non-overlapping candidates."""
    chosen: List[Rect] = []
    for candidate in candidates:
        if len(chosen) >= count:
            break
        if all(not candidate.overlaps(existing) for existing in chosen):
            chosen.append(candidate)
    return chosen
