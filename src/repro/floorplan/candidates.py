"""Feasible candidate rectangles: the one rectangle-enumeration kernel.

An area's *candidates* are the rectangles that avoid forbidden cells, respect
its extent caps and supply its resource requirements.
:func:`enumerate_candidates` lists them with summed-area tables over the
tile-type grid, one numpy pass per width.  Every consumer selects from these
arrays: the MILP builder (:mod:`repro.floorplan.milp_builder`) gives each
candidate a binary, the greedy placers (:mod:`repro.baselines.packing`) mask
and order them — within one solve both read the arrays
:func:`enumerate_areas` lists once — and the free-compatible-area search
(:mod:`repro.relocation.compatibility`) reads the same forbidden window sums
(:func:`forbidden_free_windows`) and matches columns by the partition's
interned sequence ids that :func:`signature_keys` is built on.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.device.grid import FPGADevice
from repro.device.partition import ColumnarPartition
from repro.floorplan.geometry import Rect

if TYPE_CHECKING:
    from repro.floorplan.milp_builder import AreaSpec


@dataclasses.dataclass(frozen=True)
class Candidates:
    """Feasible rectangles of one area as parallel integer arrays.

    Entry ``i`` is the rectangle ``(x[i], y[i], w[i], h[i])``; ``frames[i]``
    is the number of configuration frames it covers.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    frames: np.ndarray

    def __len__(self) -> int:
        return int(self.x.size)

    def rect(self, index: int) -> Rect:
        """Candidate ``index`` as a :class:`Rect`."""
        return Rect(
            int(self.x[index]), int(self.y[index]), int(self.w[index]), int(self.h[index])
        )

    def subset(self, keep: np.ndarray) -> "Candidates":
        """The candidates selected by a boolean mask or index array."""
        return Candidates(self.x[keep], self.y[keep], self.w[keep], self.h[keep],
                          self.frames[keep])


def _prefix2d(values: np.ndarray) -> np.ndarray:
    """Zero-padded 2D prefix sums (summed-area table)."""
    padded = np.zeros((values.shape[0] + 1, values.shape[1] + 1))
    padded[1:, 1:] = values.cumsum(axis=0).cumsum(axis=1)
    return padded


def _window_sums(strip: np.ndarray, h: int) -> np.ndarray:
    """Sums of every ``h``-row window from a zero-led row-cumsum strip."""
    return strip[:, h:] - strip[:, :-h]


#: layer keys of the summed-area tables besides the resource types
_FORBIDDEN = "forbidden"
_FRAMES = "frames"


class _SummedAreaTables:
    """Device-invariant summed-area tables shared across the areas of a build.

    One prefix table per layer — forbidden cells, frames and each requested
    resource type — plus, per (layer, width), the strip of row-cumulative sums
    over every ``width``-column window, led by a zero column, so the sum over
    rows ``y .. y+h-1`` of a window is ``strip[x, y+h] - strip[x, y]``.
    """

    def __init__(self, device: FPGADevice) -> None:
        self.device = device
        self._type_grid = device.type_index_grid()
        self._prefix: Dict[object, np.ndarray] = {
            _FORBIDDEN: _prefix2d(device.forbidden_mask().astype(np.float64))
        }
        self._density: Dict[object, float] = {}
        self._strips: Dict[Tuple[object, int], np.ndarray] = {}
        self._add_layer(_FRAMES, [tt.frames for tt in device.tile_type_list])

    def _add_layer(self, key, per_type: Sequence[float]) -> None:
        values = np.asarray(per_type, dtype=np.float64)
        self._prefix[key] = _prefix2d(values[self._type_grid])
        self._density[key] = float(values.max())

    def density(self, rtype) -> float:
        """Largest per-tile amount of a resource type on the device."""
        if rtype not in self._prefix:
            self._add_layer(rtype, [tt.resources.get(rtype) for tt in self.device.tile_type_list])
        return self._density[rtype]

    def strip(self, key, w: int) -> np.ndarray:
        """Zero-led row-cumulative sums of a layer over every ``w``-column window."""
        strip = self._strips.get((key, w))
        if strip is None:
            prefix = self._prefix[key]
            strip = prefix[w:] - prefix[:-w]
            self._strips[(key, w)] = strip
        return strip


def enumerate_candidates(
    device: FPGADevice, area: AreaSpec, tables: _SummedAreaTables | None = None
) -> Candidates:
    """Every feasible rectangle of ``area`` on ``device``.

    A rectangle ``(x, y, w, h)`` with ``w``/``h`` within the area's extent
    caps is a candidate when it contains no forbidden cell and — for regions —
    supplies every resource requirement by itself.  All rectangles of one
    width are checked in one numpy pass over summed-area tables, the
    aggregation :meth:`FPGADevice.tile_type_histogram` performs for a single
    rectangle.  Candidates come ordered by width, height, column, row.
    """
    if tables is None:
        tables = _SummedAreaTables(device)
    width, height = device.width, device.height
    wmax = min(width, area.max_width or width)
    hmax = min(height, area.max_height or height)

    requirements: List[Tuple[object, float]] = []
    min_cells = 0.0
    if not area.is_free_area:
        for rtype, required in area.requirements:
            if required <= 0:
                continue
            density = tables.density(rtype)
            requirements.append((rtype, float(required)))
            # a rect of A cells supplies at most A * density of the type,
            # a lower bound on the candidate area worth enumerating
            min_cells = max(min_cells, float(required) / density if density > 0 else math.inf)
    if math.isinf(min_cells):
        wmax = 0

    # every (height, row) window at once: rows y .. y+h-1 end below ``tops``,
    # clipped to the device where the window would stick out
    heights = np.arange(1, hmax + 1)
    tops = np.arange(height) + heights[:, None]
    inside = tops <= height
    np.minimum(tops, height, out=tops)

    parts: List[Tuple[np.ndarray, ...]] = []
    for w in range(1, wmax + 1):
        lo = max(1, int(np.ceil(min_cells / w))) - 1
        if lo >= hmax:
            continue

        def windows(key) -> np.ndarray:
            """``sums[x, k, y]``: the layer over the window of height ``heights[lo + k]``."""
            strip = tables.strip(key, w)
            return strip[:, tops[lo:]] - strip[:, None, :height]

        ok = inside[lo:] & (windows(_FORBIDDEN) == 0)
        for rtype, required in requirements:
            if not ok.any():
                break
            ok &= windows(rtype) >= required
        k, xs, ys = np.nonzero(ok.transpose(1, 0, 2))
        if xs.size == 0:
            continue
        hs = heights[lo:][k]
        frames = tables.strip(_FRAMES, w)
        parts.append(
            (xs, ys, np.full(xs.size, w), hs, frames[xs, ys + hs] - frames[xs, ys])
        )

    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return Candidates(empty, empty, empty, empty, empty)
    return Candidates(*(np.concatenate(column).astype(np.int64) for column in zip(*parts)))


def enumerate_areas(device: FPGADevice, areas: Sequence[AreaSpec]) -> Dict[str, Candidates]:
    """Every area's candidates, from one set of summed-area tables."""
    tables = _SummedAreaTables(device)
    return {area.name: enumerate_candidates(device, area, tables) for area in areas}


def signature_keys(partition: ColumnarPartition, candidates: Candidates) -> np.ndarray:
    """Relocation signature of every candidate: (height, column-type sequence).

    Two rectangles get the same key exactly when
    :func:`repro.relocation.compatibility.areas_compatible` holds for them —
    on a columnar device the tile layout depends only on the column types.
    """
    sequence_id = partition.sequence_ids[candidates.x, candidates.w]
    return sequence_id * (partition.height + 1) + candidates.h


def forbidden_free_windows(device: FPGADevice, w: int, h: int) -> np.ndarray:
    """``ok[x, y]``: the ``w x h`` rectangle at ``(x, y)`` holds no forbidden cell."""
    return _window_sums(_SummedAreaTables(device).strip(_FORBIDDEN, w), h) == 0
