"""Per-cell free-compatible-area search: the reference of the numpy pass.

:func:`repro.relocation.compatibility.enumerate_free_compatible_areas` finds
free-compatible areas with window masks; this module is a literal reading of
Definition .2 that tests check it against: every compatible column offset,
every row, one rectangle at a time, with the forbidden-area test written over
the partition's forbidden areas (set ``A``) instead of the device's
forbidden-cell mask.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.device.partition import ColumnarPartition
from repro.floorplan.geometry import Rect
from repro.relocation.compatibility import areas_compatible


def _rect_touches_forbidden(partition: ColumnarPartition, rect: Rect) -> bool:
    for area in partition.forbidden_areas:
        if rect.col > area.col_end or rect.col_end < area.col_start:
            continue
        if any(rect.row <= row <= rect.row_end for row in area.rows):
            return True
    return False


def is_free_compatible(
    partition: ColumnarPartition,
    region_rect: Rect,
    candidate: Rect,
    occupied: Iterable[Rect] = (),
) -> bool:
    """Definition .2: candidate is compatible with the region and free.

    ``occupied`` lists every rectangle the candidate must not overlap: the
    placements of all reconfigurable regions (including the source region)
    and any already-reserved free-compatible area.
    """
    if not areas_compatible(partition, region_rect, candidate):
        return False
    if _rect_touches_forbidden(partition, candidate):
        return False
    for rect in occupied:
        if candidate.overlaps(rect):
            return False
    return True


def compatible_column_offsets(partition: ColumnarPartition, rect: Rect) -> List[int]:
    """Leftmost columns at which a compatible copy of ``rect`` could start.

    Because tile types are constant along a column, a copy placed with its
    left edge at column ``c`` is compatible iff the column-type sequence of
    ``c .. c+width-1`` equals that of the original rectangle; the row position
    is unconstrained by compatibility (only by overlap/forbidden checks).
    The original column is included in the result.
    """
    if not rect.within(partition.width, partition.height):
        raise ValueError(f"rectangle {rect} lies outside the device")
    signature = [partition.column_type(rect.col + off) for off in range(rect.width)]
    offsets: List[int] = []
    for col in range(0, partition.width - rect.width + 1):
        if all(
            partition.column_type(col + off) == signature[off]
            for off in range(rect.width)
        ):
            offsets.append(col)
    return offsets


def enumerate_free_compatible_areas(
    partition: ColumnarPartition,
    region_rect: Rect,
    occupied: Sequence[Rect] = (),
) -> List[Rect]:
    """Every free-compatible area of a placed region, column-first then row."""
    blockers = list(occupied)
    if region_rect not in blockers:
        blockers.append(region_rect)
    candidates: List[Rect] = []
    for col in compatible_column_offsets(partition, region_rect):
        for row in range(0, partition.height - region_rect.height + 1):
            candidate = Rect(col, row, region_rect.width, region_rect.height)
            if candidate == region_rect:
                continue
            if is_free_compatible(partition, region_rect, candidate, blockers):
                candidates.append(candidate)
    return candidates
