"""The FPGA tile grid.

:class:`FPGADevice` models the reconfigurable fabric as a ``width x height``
grid of tiles.  Columns are indexed ``0 .. width-1`` left to right and rows
``0 .. height-1`` bottom to top (all code in this repository uses 0-based
indices; the paper's 1-based formulas are translated accordingly).

A device also carries a set of *forbidden rectangles* — areas occupied by hard
blocks (the PowerPC of the Virtex-5 FX70T in the paper) that reconfigurable
regions and free-compatible areas must not cross.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.device.resources import ResourceVector
from repro.device.tile import TileType, TileTypeRegistry


@dataclasses.dataclass(frozen=True)
class ForbiddenRect:
    """A rectangular block of forbidden tiles.

    Attributes
    ----------
    name:
        Identifier used in rendering and reports (e.g. ``"PPC"``).
    col, row:
        Bottom-left corner (0-based, inclusive).
    width, height:
        Extent in tiles.
    """

    name: str
    col: int
    row: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"forbidden rect {self.name!r} must have positive extent")
        if self.col < 0 or self.row < 0:
            raise ValueError(f"forbidden rect {self.name!r} must have non-negative origin")

    @property
    def col_end(self) -> int:
        """Rightmost column covered (inclusive)."""
        return self.col + self.width - 1

    @property
    def row_end(self) -> int:
        """Topmost row covered (inclusive)."""
        return self.row + self.height - 1

    def cells(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(col, row)`` pairs covered by the rectangle."""
        for col in range(self.col, self.col + self.width):
            for row in range(self.row, self.row + self.height):
                yield col, row

    def contains(self, col: int, row: int) -> bool:
        """Whether the rectangle covers the given cell."""
        return self.col <= col <= self.col_end and self.row <= row <= self.row_end


class FPGADevice:
    """A heterogeneous FPGA fabric described as a tile grid.

    Parameters
    ----------
    name:
        Device name (``"virtex5-fx70t-like"`` ...).
    tile_types:
        2D sequence indexed ``[col][row]`` of :class:`TileType` objects, or a
        per-column sequence when ``columnar=True`` is used via
        :meth:`from_columns`.
    forbidden:
        Rectangles of tiles that cannot be used by reconfigurable regions.
    registry:
        Tile-type registry; defaults to a registry built from the types that
        appear in the grid.
    """

    def __init__(
        self,
        name: str,
        tile_types: Sequence[Sequence[TileType]],
        forbidden: Iterable[ForbiddenRect] = (),
        registry: TileTypeRegistry | None = None,
    ) -> None:
        if len(tile_types) == 0 or len(tile_types[0]) == 0:
            raise ValueError("device grid must be non-empty")
        self.name = name
        self.width = len(tile_types)
        self.height = len(tile_types[0])
        for col, column in enumerate(tile_types):
            if len(column) != self.height:
                raise ValueError(
                    f"column {col} has {len(column)} rows, expected {self.height}"
                )

        # intern tile types into a compact index grid: hash each distinct
        # object once, in first-seen column-major order, so equal-but-distinct
        # types share one index; then map every cell through one lookup table
        cells = np.asarray(tile_types, dtype=object).ravel()
        ids = np.frompyfunc(id, 1, 1)(cells).astype(np.uint64)
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        type_index: Dict[TileType, int] = {}
        lookup = np.empty(len(first), dtype=np.int16)
        for unique in np.argsort(first).tolist():
            lookup[unique] = type_index.setdefault(cells[first[unique]], len(type_index))
        self._type_list: List[TileType] = list(type_index)
        self._grid = lookup[inverse.ravel()].reshape(self.width, self.height)

        self.forbidden: Tuple[ForbiddenRect, ...] = tuple(forbidden)
        self._forbidden_mask = np.zeros((self.width, self.height), dtype=bool)
        for rect in self.forbidden:
            if rect.col_end >= self.width or rect.row_end >= self.height:
                raise ValueError(
                    f"forbidden rect {rect.name!r} exceeds device bounds "
                    f"({self.width}x{self.height})"
                )
            self._forbidden_mask[rect.col : rect.col + rect.width, rect.row : rect.row + rect.height] = True

        if registry is None:
            registry = TileTypeRegistry(self._type_list)
        else:
            for tile_type in self._type_list:
                registry.register(tile_type)
        self.registry = registry

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        name: str,
        column_types: Sequence[TileType],
        height: int,
        forbidden: Iterable[ForbiddenRect] = (),
    ) -> "FPGADevice":
        """Build a columnar device where every tile in a column has one type.

        This matches the structure of modern Xilinx devices (Virtex-5/7
        columns of CLB/BRAM/DSP) and is the layout assumed by the paper's
        columnar partitioning simplification.
        """
        if height <= 0:
            raise ValueError("height must be positive")
        grid = [[ctype] * height for ctype in column_types]
        return cls(name, grid, forbidden=forbidden)

    # ------------------------------------------------------------------
    # cell queries
    # ------------------------------------------------------------------
    def tile_type_at(self, col: int, row: int) -> TileType:
        """Tile type at ``(col, row)``."""
        self._check_cell(col, row)
        return self._type_list[int(self._grid[col, row])]

    def type_index_at(self, col: int, row: int) -> int:
        """Dense tile-type index at ``(col, row)`` (stable per device)."""
        self._check_cell(col, row)
        return int(self._grid[col, row])

    @property
    def tile_type_list(self) -> Sequence[TileType]:
        """Tile types present in the device, indexed by their dense index."""
        return tuple(self._type_list)

    def is_forbidden(self, col: int, row: int) -> bool:
        """Whether the cell belongs to a forbidden rectangle."""
        self._check_cell(col, row)
        return bool(self._forbidden_mask[col, row])

    # ------------------------------------------------------------------
    # rectangle aggregates (vectorized hot paths for placers/annealers)
    # ------------------------------------------------------------------
    def tile_type_histogram(self, col: int, row: int, width: int, height: int) -> List[int]:
        """Tiles of each dense type index inside a rectangle (one numpy pass).

        The rectangle must lie within the device.  Index ``i`` of the result
        counts tiles whose type is ``tile_type_list[i]`` — the building block
        of :func:`repro.floorplan.placement.rect_resources` and the annealer's
        incremental cost updates, replacing the per-cell ``tile_type_at``
        loop.
        """
        self._check_cell(col, row)
        self._check_cell(col + width - 1, row + height - 1)
        window = self._grid[col : col + width, row : row + height]
        return np.bincount(window.ravel(), minlength=len(self._type_list)).tolist()

    def forbidden_cell_count(self, col: int, row: int, width: int, height: int) -> int:
        """Forbidden cells inside a rectangle (one numpy pass)."""
        self._check_cell(col, row)
        self._check_cell(col + width - 1, row + height - 1)
        return int(
            self._forbidden_mask[col : col + width, row : row + height].sum()
        )

    def type_index_grid(self) -> np.ndarray:
        """Dense tile-type indices as a ``(width, height)`` array (copy).

        Feeds vectorized geometry passes (prefix-sum placement enumeration in
        :mod:`repro.floorplan.candidates`) that would otherwise loop over
        :meth:`type_index_at` cell by cell.
        """
        return self._grid.copy()

    def forbidden_mask(self) -> np.ndarray:
        """Boolean forbidden-cell mask as a ``(width, height)`` array (copy)."""
        return self._forbidden_mask.copy()

    def forbidden_cells(self) -> Iterator[Tuple[int, int]]:
        """Iterate all forbidden ``(col, row)`` cells."""
        cols, rows = np.nonzero(self._forbidden_mask)
        for col, row in zip(cols.tolist(), rows.tolist()):
            yield col, row

    def _usable_types(self, col: int) -> np.ndarray:
        """Distinct type indices of a column's non-forbidden tiles."""
        return np.unique(self._grid[col][~self._forbidden_mask[col]])

    def column_is_uniform(self, col: int) -> bool:
        """True if every (non-forbidden) tile in the column shares one type."""
        return len(self._usable_types(col)) <= 1

    def column_type(self, col: int) -> TileType:
        """Dominant tile type of a column, ignoring forbidden cells.

        Raises ``ValueError`` if the column mixes types outside forbidden
        areas (such a device cannot be columnar partitioned).
        """
        types = self._usable_types(col)
        if not len(types):
            # fully forbidden column: fall back to the raw grid content
            types = np.unique(self._grid[col])
        if len(types) != 1:
            raise ValueError(f"column {col} mixes tile types; device is not columnar")
        return self._type_list[int(types[0])]

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Total number of tiles, including forbidden ones."""
        return self.width * self.height

    @property
    def num_usable_tiles(self) -> int:
        """Tiles available to reconfigurable regions (not forbidden)."""
        return int(self.num_tiles - self._forbidden_mask.sum())

    def _type_counts(self) -> List[int]:
        """Tiles of each dense type index over the usable fabric."""
        cells = self._grid[~self._forbidden_mask]
        return np.bincount(cells.ravel(), minlength=len(self._type_list)).tolist()

    def total_resources(self) -> ResourceVector:
        """Aggregate resources of the usable (not forbidden) fabric."""
        total = ResourceVector.zero()
        for tile_type, count in zip(self._type_list, self._type_counts()):
            total = total + tile_type.resources * count
        return total

    def total_frames(self) -> int:
        """Aggregate configuration frames of the usable fabric."""
        counts = self._type_counts()
        return sum(tile_type.frames * count for tile_type, count in zip(self._type_list, counts))

    def tile_count_by_type(self) -> Dict[TileType, int]:
        """Usable tiles of each type (types with no usable tile are omitted)."""
        counts = self._type_counts()
        return {tile_type: count for tile_type, count in zip(self._type_list, counts) if count}

    # ------------------------------------------------------------------
    def _check_cell(self, col: int, row: int) -> None:
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise IndexError(
                f"cell ({col}, {row}) outside device {self.width}x{self.height}"
            )

    def __repr__(self) -> str:
        return (
            f"FPGADevice({self.name!r}, {self.width}x{self.height}, "
            f"{len(self._type_list)} tile types, {len(self.forbidden)} forbidden rects)"
        )
