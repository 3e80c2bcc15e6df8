"""Portions and forbidden areas.

A *portion* is a fixed rectangular area of the FPGA containing tiles of the
same type.  After the model simplification of Section III.A the floorplanner
only deals with *columnar portions*: portions extending over the entire device
height.  Hard blocks that would break column contiguity are carried separately
as *forbidden areas* (set ``A`` in the paper), which — unlike in [10] — overlap
the portions instead of being part of the partition.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Tuple

from repro.device.tile import TileType


@dataclasses.dataclass(frozen=True)
class Portion:
    """A columnar portion: a run of adjacent columns sharing one tile type.

    Attributes
    ----------
    index:
        Position of the portion in the left-to-right ordering (Property .4).
    col_start, col_end:
        First and last column covered (0-based, inclusive).
    tile_type:
        The single tile type contained in the portion.
    height:
        Device height in tiles (portions span the full height by construction).
    """

    index: int
    col_start: int
    col_end: int
    tile_type: TileType
    height: int

    def __post_init__(self) -> None:
        if self.col_end < self.col_start:
            raise ValueError("portion column range is empty")
        if self.height <= 0:
            raise ValueError("portion height must be positive")

    @property
    def width(self) -> int:
        """Number of columns spanned."""
        return self.col_end - self.col_start + 1

    @property
    def num_tiles(self) -> int:
        """Tiles contained (width x full device height)."""
        return self.width * self.height

    def columns(self) -> range:
        """The columns covered by the portion."""
        return range(self.col_start, self.col_end + 1)

    def contains_column(self, col: int) -> bool:
        """Whether the given column belongs to this portion."""
        return self.col_start <= col <= self.col_end

    def __repr__(self) -> str:
        return (
            f"Portion(#{self.index}, cols {self.col_start}..{self.col_end}, "
            f"type {self.tile_type.name})"
        )


@dataclasses.dataclass(frozen=True)
class ForbiddenArea:
    """A forbidden area in the sense of set ``A`` of the paper.

    It is described by its column extent and the set of rows it lies on
    (parameters ``xa1``, ``xa2`` and ``ra[a,r]`` in the paper), and must not be
    crossed by reconfigurable regions or free-compatible areas.
    """

    name: str
    col_start: int
    col_end: int
    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.col_end < self.col_start:
            raise ValueError("forbidden area column range is empty")
        if not self.rows:
            raise ValueError("forbidden area must lie on at least one row")

    @property
    def width(self) -> int:
        """Number of columns spanned."""
        return self.col_end - self.col_start + 1

    def cells(self) -> Iterator[Tuple[int, int]]:
        """All ``(col, row)`` cells covered by the forbidden area."""
        for col in range(self.col_start, self.col_end + 1):
            for row in self.rows:
                yield col, row

    def __repr__(self) -> str:
        return (
            f"ForbiddenArea({self.name!r}, cols {self.col_start}..{self.col_end}, "
            f"rows {sorted(self.rows)})"
        )
