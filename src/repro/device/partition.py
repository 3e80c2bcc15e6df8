"""Columnar partitioning (Section III.B of the paper).

The revised partitioning procedure produces:

* the set ``P`` of *columnar portions* — rectangles of same-type tiles spanning
  the entire device height, ordered left to right (Property .4), with adjacent
  portions always differing in tile type (Property .3);
* the set ``A`` of *forbidden areas*, which overlap the portions (step 1 of the
  procedure replaces each forbidden tile by a same-column tile type so that the
  partition itself remains columnar).

The procedure intentionally follows the paper's six steps rather than the
obvious shortcut (group same-type column runs) so that the failure mode —
"if the portion cannot be extended completely to the bottom of the FPGA, then
the FPGA cannot be columnar partitioned" — is reproduced exactly.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Tuple

import numpy as np

from repro.device.grid import FPGADevice
from repro.device.portion import ForbiddenArea, Portion
from repro.device.tile import TileType


class PartitionError(ValueError):
    """Raised when a device cannot be columnar partitioned."""


@dataclasses.dataclass
class ColumnarPartition:
    """Result of :func:`columnar_partition`.

    Attributes
    ----------
    device:
        The partitioned device.
    portions:
        Columnar portions ordered left to right (Property .4).
    forbidden_areas:
        Forbidden areas (set ``A``), overlapping the portions.
    column_types:
        Effective tile type of every column after the forbidden-tile
        replacement of step 1.
    """

    device: FPGADevice
    portions: Tuple[Portion, ...]
    forbidden_areas: Tuple[ForbiddenArea, ...]
    column_types: Tuple[TileType, ...]

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Device width in tiles."""
        return self.device.width

    @property
    def height(self) -> int:
        """Device height in tiles."""
        return self.device.height

    @property
    def num_portions(self) -> int:
        """Number of columnar portions (``|P|``)."""
        return len(self.portions)

    @property
    def tile_types(self) -> Tuple[TileType, ...]:
        """Distinct tile types appearing in the partition, in portion order."""
        seen: Dict[TileType, None] = {}
        for portion in self.portions:
            seen.setdefault(portion.tile_type, None)
        return tuple(seen.keys())

    @property
    def num_types(self) -> int:
        """``nTypes`` of the paper."""
        return len(self.tile_types)

    def type_id(self, tile_type: TileType) -> int:
        """Dense id of a tile type (``tid`` values are 0-based here)."""
        return self.tile_types.index(tile_type)

    def portion_type_ids(self) -> Tuple[int, ...]:
        """``tid_p`` for every portion, in portion order."""
        return tuple(self.type_id(p.tile_type) for p in self.portions)

    @functools.cached_property
    def sequence_ids(self) -> np.ndarray:
        """``ids[x, w]``: an id of the column-type sequence of columns ``x .. x+w-1``.

        Two column ranges get the same id exactly when their column types
        agree one by one, i.e. when equally tall rectangles on them are
        compatible; ``ids[x, w]`` is ``-1`` where the range leaves the device.
        """
        type_ids = {tile_type: i for i, tile_type in enumerate(self.tile_types)}
        types = [type_ids[tile_type] for tile_type in self.column_types]
        sequence_id = np.full((self.width, self.width + 1), -1, dtype=np.int64)
        interned: Dict[Tuple[int, int], int] = {}
        for x in range(self.width):
            prefix = -1
            for w in range(1, self.width - x + 1):
                # intern (id of the first w-1 types, next type): equal ids <=> equal sequences
                prefix = interned.setdefault((prefix, types[x + w - 1]), len(interned))
                sequence_id[x, w] = prefix
        return sequence_id

    # ------------------------------------------------------------------
    def portion_of_column(self, col: int) -> Portion:
        """The portion containing the given column."""
        for portion in self.portions:
            if portion.contains_column(col):
                return portion
        raise IndexError(f"column {col} outside device width {self.width}")

    def column_type(self, col: int) -> TileType:
        """Effective tile type of a column (after step-1 replacement)."""
        return self.column_types[col]

    def is_forbidden_cell(self, col: int, row: int) -> bool:
        """Whether a cell lies inside a forbidden area."""
        return self.device.is_forbidden(col, row)

    def forbidden_cells(self) -> List[Tuple[int, int]]:
        """All forbidden cells of the device."""
        return list(self.device.forbidden_cells())

    def frames_in_column(self, col: int) -> int:
        """Frames per tile in a column (every tile shares the column type)."""
        return self.column_type(col).frames

    # ------------------------------------------------------------------
    def check_properties(self) -> None:
        """Assert Properties .3 and .4 plus full/disjoint coverage.

        Used by tests and by :func:`repro.device.validation.validate_device`.
        """
        # Property .4: orderly numbered left to right, covering every column once.
        expected_col = 0
        for index, portion in enumerate(self.portions):
            if portion.index != index:
                raise AssertionError("portion indices are not consecutive")
            if portion.col_start != expected_col:
                raise AssertionError(
                    f"portion {index} starts at column {portion.col_start}, expected {expected_col}"
                )
            expected_col = portion.col_end + 1
        if expected_col != self.width:
            raise AssertionError("portions do not cover the full device width")
        # Property .3: adjacent portions have different tile types.
        for left, right in zip(self.portions, self.portions[1:]):
            if left.tile_type == right.tile_type:
                raise AssertionError(
                    f"adjacent portions {left.index} and {right.index} share tile type "
                    f"{left.tile_type.name}"
                )

    def __repr__(self) -> str:
        return (
            f"ColumnarPartition({self.device.name!r}, {self.num_portions} portions, "
            f"{len(self.forbidden_areas)} forbidden areas)"
        )


def columnar_partition(device: FPGADevice) -> ColumnarPartition:
    """Run the revised partitioning procedure of Section III.B.

    Raises
    ------
    PartitionError
        If a portion cannot be extended to the full device height, i.e. the
        device is not columnar (step 4 failure in the paper).
    """
    width, height = device.width, device.height

    # ------------------------------------------------------------------
    # Step 1: replace forbidden tiles by a same-column, non-forbidden tile type.
    # ------------------------------------------------------------------
    # A fully forbidden column keeps its underlying types; the paper does not
    # cover this case, but keeping the raw type lets partitioning proceed and
    # the forbidden-area constraints still exclude the column from any region.
    effective = device.type_index_grid()
    forbidden = device.forbidden_mask()
    for col in np.flatnonzero(forbidden.any(axis=1)).tolist():
        usable = np.unique(effective[col][~forbidden[col]])
        if len(usable) > 1:
            raise PartitionError(
                f"column {col} mixes tile types outside forbidden areas; "
                "cannot pick a replacement type (step 1)"
            )
        if len(usable) == 1:
            effective[col][forbidden[col]] = usable[0]

    # ------------------------------------------------------------------
    # Steps 2-5: scan top to bottom, left to right, growing portions.
    # ------------------------------------------------------------------
    assigned = np.full((width, height), -1, dtype=np.int32)
    portions: List[Portion] = []
    type_list = device.tile_type_list

    def first_free_tile() -> Tuple[int, int] | None:
        # "top to bottom, left to right": row index height-1 is the top row.
        for row in range(height - 1, -1, -1):
            for col in range(width):
                if assigned[col, row] < 0:
                    return col, row
        return None

    while True:
        seed = first_free_tile()
        if seed is None:
            break
        col0, row0 = seed
        tile_idx = int(effective[col0, row0])

        # Step 3: extend to the right while free tiles of the same type.
        col1 = col0
        while (
            col1 + 1 < width
            and assigned[col1 + 1, row0] < 0
            and int(effective[col1 + 1, row0]) == tile_idx
        ):
            col1 += 1

        # Step 4: extend to the bottom while the whole row below matches.
        row_bottom = row0
        while row_bottom - 1 >= 0:
            candidate = row_bottom - 1
            ok = all(
                assigned[col, candidate] < 0
                and int(effective[col, candidate]) == tile_idx
                for col in range(col0, col1 + 1)
            )
            if not ok:
                break
            row_bottom = candidate
        if row_bottom != 0 or row0 != height - 1:
            raise PartitionError(
                f"portion seeded at column {col0} (type {type_list[tile_idx].name}) "
                f"spans rows {row_bottom}..{row0}, not the full device height; "
                "the device cannot be columnar partitioned"
            )

        portion_index = len(portions)
        portions.append(
            Portion(
                index=portion_index,
                col_start=col0,
                col_end=col1,
                tile_type=type_list[tile_idx],
                height=height,
            )
        )
        assigned[col0 : col1 + 1, :] = portion_index

    # ------------------------------------------------------------------
    # Step 6: identify forbidden areas by position and size.
    # ------------------------------------------------------------------
    forbidden_areas = tuple(
        ForbiddenArea(
            name=rect.name,
            col_start=rect.col,
            col_end=rect.col_end,
            rows=tuple(range(rect.row, rect.row_end + 1)),
        )
        for rect in device.forbidden
    )

    column_types = tuple(
        type_list[int(effective[col, height - 1])] for col in range(width)
    )
    partition = ColumnarPartition(
        device=device,
        portions=tuple(portions),
        forbidden_areas=forbidden_areas,
        column_types=column_types,
    )
    partition.check_properties()
    return partition
