"""Solved placements.

A :class:`Floorplan` holds the rectangle assigned to every reconfigurable
region and to every *free-compatible area* reserved for relocation, plus the
metadata of the solve that produced it.  It is a plain data object: metrics
live in :mod:`repro.floorplan.metrics`, feasibility checking in
:mod:`repro.floorplan.verify`, and rendering in :mod:`repro.analysis.render`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.device.grid import FPGADevice
from repro.device.resources import ResourceVector
from repro.floorplan.geometry import Rect
from repro.floorplan.problem import FloorplanProblem


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


@dataclasses.dataclass(frozen=True)
class RegionPlacement:
    """The rectangle assigned to one area (region or free-compatible area).

    Attributes
    ----------
    name:
        Area name.  Free-compatible areas follow the paper's naming scheme:
        the region name followed by a copy number (e.g. ``"Signal Decoder 2"``).
    rect:
        The assigned rectangle.
    compatible_with:
        For free-compatible areas, the name of the region whose bitstreams can
        be relocated into this area; ``None`` for ordinary regions.
    satisfied:
        For soft (relocation-as-a-metric) areas, whether the compatibility
        constraints were actually satisfied in the solution (``v[c] == 0``).
    """

    name: str
    rect: Rect
    compatible_with: Optional[str] = None
    satisfied: bool = True

    @property
    def is_free_compatible_area(self) -> bool:
        """True when this placement is a reserved relocation target."""
        return self.compatible_with is not None

    def covered_resources(self, device: FPGADevice) -> ResourceVector:
        """Resources of the tiles covered on ``device``."""
        return rect_resources(device, self.rect)

    def covered_frames(self, device: FPGADevice) -> int:
        """Configuration frames of the tiles covered on ``device``."""
        return rect_frames(device, self.rect)

    def covered_tiles_by_type(self, device: FPGADevice) -> Dict[str, int]:
        """Number of covered tiles per tile-type name."""
        counts: Dict[str, int] = {}
        for col, row in self.rect.cells():
            name = device.tile_type_at(col, row).name
            counts[name] = counts.get(name, 0) + 1
        return counts


@dataclasses.dataclass
class Floorplan:
    """A (possibly partial) solution to a :class:`FloorplanProblem`.

    Attributes
    ----------
    problem:
        The problem the floorplan answers.
    placements:
        Placements of the reconfigurable regions, keyed by region name.
    free_areas:
        Placements of the reserved free-compatible areas, keyed by area name.
    objective:
        Objective value reported by the solver (``nan`` for heuristics that do
        not compute it).
    solve_time:
        Wall-clock seconds spent producing the floorplan.
    solver_status:
        Free-form status string (``"optimal"``, ``"feasible"``, heuristic name).
    metadata:
        Additional solver-specific information (model statistics, node counts).
    """

    problem: FloorplanProblem
    placements: Dict[str, RegionPlacement] = dataclasses.field(default_factory=dict)
    free_areas: Dict[str, RegionPlacement] = dataclasses.field(default_factory=dict)
    objective: float = float("nan")
    solve_time: float = 0.0
    solver_status: str = ""
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def device(self) -> FPGADevice:
        """The device the floorplan targets."""
        return self.problem.device

    def placement_for(self, name: str) -> RegionPlacement:
        """Placement of a region or free-compatible area by name."""
        if name in self.placements:
            return self.placements[name]
        if name in self.free_areas:
            return self.free_areas[name]
        raise KeyError(f"no placement for {name!r}")

    def all_placements(self) -> Iterator[RegionPlacement]:
        """Iterate region placements then free-compatible-area placements."""
        yield from self.placements.values()
        yield from self.free_areas.values()

    def all_rects(self) -> List[Rect]:
        """Rectangles of every placed area."""
        return [p.rect for p in self.all_placements()]

    @property
    def is_complete(self) -> bool:
        """Whether every region of the problem has a placement."""
        return all(name in self.placements for name in self.problem.region_names)

    @property
    def num_free_compatible_areas(self) -> int:
        """Number of *satisfied* free-compatible areas (Table II column)."""
        return sum(1 for p in self.free_areas.values() if p.satisfied)

    def free_areas_for(self, region_name: str) -> List[RegionPlacement]:
        """Free-compatible areas reserved for a given region."""
        return [
            p for p in self.free_areas.values() if p.compatible_with == region_name
        ]

    # ------------------------------------------------------------------
    def add_placement(self, placement: RegionPlacement) -> None:
        """Add a placement, routing it to regions or free areas as appropriate."""
        if placement.is_free_compatible_area:
            self.free_areas[placement.name] = placement
        else:
            self.placements[placement.name] = placement

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict representation for serialization and reports."""

        def encode(placement: RegionPlacement) -> Dict[str, object]:
            return {
                "col": placement.rect.col,
                "row": placement.rect.row,
                "width": placement.rect.width,
                "height": placement.rect.height,
                "compatible_with": placement.compatible_with,
                "satisfied": placement.satisfied,
            }

        return {
            "problem": self.problem.name,
            "device": self.device.name,
            "objective": self.objective,
            "solver_status": self.solver_status,
            "solve_time": self.solve_time,
            "placements": {name: encode(p) for name, p in self.placements.items()},
            "free_areas": {name: encode(p) for name, p in self.free_areas.items()},
        }

    @classmethod
    def from_dict(
        cls, problem: FloorplanProblem, data: Mapping[str, object]
    ) -> "Floorplan":
        """Inverse of :meth:`to_dict` (the problem object is supplied, not
        deserialized — the encoding only stores its name)."""

        def decode(name: str, encoded: Mapping[str, object]) -> RegionPlacement:
            return RegionPlacement(
                name=name,
                rect=Rect(
                    encoded["col"], encoded["row"], encoded["width"], encoded["height"]
                ),
                compatible_with=encoded.get("compatible_with"),
                satisfied=encoded.get("satisfied", True),
            )

        floorplan = cls(
            problem=problem,
            objective=data.get("objective", float("nan")),
            solve_time=data.get("solve_time", 0.0),
            solver_status=data.get("solver_status", ""),
        )
        for name, encoded in data.get("placements", {}).items():
            floorplan.placements[name] = decode(name, encoded)
        for name, encoded in data.get("free_areas", {}).items():
            floorplan.free_areas[name] = decode(name, encoded)
        return floorplan

    @staticmethod
    def from_rects(
        problem: FloorplanProblem,
        rects: Mapping[str, Rect],
        free_rects: Mapping[str, Tuple[Rect, str]] | None = None,
        solver_status: str = "manual",
    ) -> "Floorplan":
        """Build a floorplan from plain rectangles (used by heuristics/tests)."""
        floorplan = Floorplan(problem=problem, solver_status=solver_status)
        for name, rect in rects.items():
            floorplan.placements[name] = RegionPlacement(name=name, rect=rect)
        for name, (rect, region_name) in (free_rects or {}).items():
            floorplan.free_areas[name] = RegionPlacement(
                name=name, rect=rect, compatible_with=region_name
            )
        return floorplan

    def __repr__(self) -> str:
        return (
            f"Floorplan({self.problem.name!r}, {len(self.placements)} regions placed, "
            f"{len(self.free_areas)} free-compatible areas, status={self.solver_status!r})"
        )
