"""Per-cell reference implementations of the device aggregates.

These are the cell-by-cell loops that :class:`~repro.device.grid.FPGADevice`
and :func:`~repro.service.jobs.device_spec_dict` used before they were
vectorized.  They read the device only through its per-cell queries
(``tile_type_at``, ``type_index_at``, ``is_forbidden``), so they are an
independent oracle for the array code.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.device.resources import ResourceVector
from repro.device.tile import TileType


def _usable_cells(device):
    for col in range(device.width):
        for row in range(device.height):
            if not device.is_forbidden(col, row):
                yield col, row


def total_resources(device) -> ResourceVector:
    total = ResourceVector.zero()
    for col, row in _usable_cells(device):
        total = total + device.tile_type_at(col, row).resources
    return total


def total_frames(device) -> int:
    return sum(device.tile_type_at(col, row).frames for col, row in _usable_cells(device))


def tile_count_by_type(device) -> Dict[TileType, int]:
    counts: Dict[TileType, int] = {}
    for col, row in _usable_cells(device):
        tile_type = device.tile_type_at(col, row)
        counts[tile_type] = counts.get(tile_type, 0) + 1
    return counts


def intern(tile_types: Sequence[Sequence[TileType]]) -> Tuple[List[TileType], List[List[int]]]:
    """First-seen column-major interning of a ``[col][row]`` type grid."""
    type_list: List[TileType] = []
    index: Dict[TileType, int] = {}
    grid = []
    for column in tile_types:
        indices = []
        for tile_type in column:
            if tile_type not in index:
                index[tile_type] = len(type_list)
                type_list.append(tile_type)
            indices.append(index[tile_type])
        grid.append(indices)
    return type_list, grid


def device_spec_dict(device) -> Dict[str, object]:
    types = [
        {
            "name": tile_type.name,
            "frames": tile_type.frames,
            "resources": tile_type.resources.as_dict(),
        }
        for tile_type in device.tile_type_list
    ]
    grid: List[int] = []
    forbidden: List[int] = []
    for col in range(device.width):
        for row in range(device.height):
            grid.append(device.type_index_at(col, row))
            if device.is_forbidden(col, row):
                forbidden.append(col * device.height + row)
    return {
        "name": device.name,
        "width": device.width,
        "height": device.height,
        "types": types,
        "grid": grid,
        "forbidden": forbidden,
    }
