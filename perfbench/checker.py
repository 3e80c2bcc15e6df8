"""Independent floorplan checker for ``POST /solve`` answers.

Every check is re-derived from the request body itself (the canonical JSON a
client sends), without importing the floorplanner: no call into
``repro.floorplan.verify`` or ``repro.floorplan.metrics``, no decode through
``repro.server.protocol``.  A bug in the solver, the cache or the wire
encoding therefore cannot hide behind a shared helper.

:func:`check_answer` returns the list of violations; an empty list means the
answer is a valid floorplan for the request and reports its own wasted-frame
count honestly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

Rect = Tuple[int, int, int, int]  # col, row, width, height


class DeviceView:
    """The device grid of a request body: tile types per cell, forbidden cells."""

    def __init__(self, device: Mapping[str, object]) -> None:
        self.width = int(device["width"])
        self.height = int(device["height"])
        self.types = list(device["types"])
        self.grid = [int(index) for index in device["grid"]]
        if len(self.grid) != self.width * self.height:
            raise ValueError("device grid does not match its extent")
        self.forbidden = {int(cell) for cell in device.get("forbidden", ())}

    def type_at(self, col: int, row: int) -> int:
        return self.grid[col * self.height + row]

    def cells(self, rect: Rect):
        col, row, width, height = rect
        for c in range(col, col + width):
            for r in range(row, row + height):
                yield c, r

    def resources(self, rect: Rect) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for c, r in self.cells(rect):
            for name, count in self.types[self.type_at(c, r)]["resources"].items():
                total[name] = total.get(name, 0) + int(count)
        return total

    def frames(self, rect: Rect) -> int:
        return sum(int(self.types[self.type_at(c, r)]["frames"]) for c, r in self.cells(rect))

    def frames_per_resource(self) -> Dict[str, int]:
        """Frames of the tile type that provides each resource (one type each)."""
        mapping: Dict[str, int] = {}
        for tile_type in self.types:
            for name, count in tile_type["resources"].items():
                if int(count) > 0:
                    mapping[name] = int(tile_type["frames"])
        return mapping


def _rect(encoded: Mapping[str, object]) -> Rect:
    return (
        int(encoded["col"]),
        int(encoded["row"]),
        int(encoded["width"]),
        int(encoded["height"]),
    )


def _overlap(a: Rect, b: Rect) -> bool:
    return (
        a[0] < b[0] + b[2]
        and b[0] < a[0] + a[2]
        and a[1] < b[1] + b[3]
        and b[1] < a[1] + a[3]
    )


def required_frames(body: Mapping[str, object]) -> int:
    """Minimum frames the request's regions need (the Table I column summed)."""
    problem = body["problem"]
    per_resource = DeviceView(problem["device"]).frames_per_resource()
    return sum(
        int(count) * per_resource[name]
        for region in problem["regions"]
        for name, count in region["requirements"].items()
        if int(count) > 0
    )


def wasted_frames(body: Mapping[str, object], placements: Mapping[str, Mapping]) -> int:
    """Frames the region rectangles cover beyond the regions' requirement.

    Free-compatible areas are not counted: they only hold space for relocated
    bitstreams (the paper's Table II objective).
    """
    device = DeviceView(body["problem"]["device"])
    covered = sum(device.frames(_rect(encoded)) for encoded in placements.values())
    return covered - required_frames(body)


def check_answer(body: Mapping[str, object], response: Mapping[str, object]) -> List[str]:
    """Violations of a ``/solve`` 200 answer against its request body."""
    result = response.get("result") or {}
    floorplan = result.get("floorplan")
    if not result.get("feasible") or not isinstance(floorplan, Mapping):
        return [f"no feasible floorplan (status {result.get('status')!r})"]
    problem = body["problem"]
    device = DeviceView(problem["device"])
    placements = floorplan.get("placements") or {}
    free_areas = floorplan.get("free_areas") or {}
    regions = {region["name"]: region for region in problem["regions"]}
    violations: List[str] = []

    if set(placements) != set(regions):
        violations.append(
            f"placed regions {sorted(placements)} differ from requested {sorted(regions)}"
        )

    # unsatisfied soft free areas reserve nothing and carry no guarantee
    areas: Dict[str, Rect] = {name: _rect(p) for name, p in placements.items()}
    for name, area in free_areas.items():
        if area.get("satisfied", True):
            areas[name] = _rect(area)

    for name, rect in areas.items():
        if not _inside(device, rect):
            violations.append(f"{name!r} leaves the {device.width}x{device.height} device")
        elif any(c * device.height + r in device.forbidden for c, r in device.cells(rect)):
            violations.append(f"{name!r} covers a forbidden tile")

    names = sorted(areas)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            if _overlap(areas[first], areas[second]):
                violations.append(f"{first!r} and {second!r} overlap")

    for name, region in regions.items():
        rect = areas.get(name)
        if rect is None or not _inside(device, rect):
            continue  # missing or already reported as leaving the device
        covered = device.resources(rect)
        for resource, count in region["requirements"].items():
            if covered.get(resource, 0) < int(count):
                violations.append(
                    f"region {name!r} covers {covered.get(resource, 0)} {resource} "
                    f"tiles, needs {count}"
                )
        if region.get("max_width") is not None and rect[2] > int(region["max_width"]):
            violations.append(f"region {name!r} is wider than its cap")
        if region.get("max_height") is not None and rect[3] > int(region["max_height"]):
            violations.append(f"region {name!r} is taller than its cap")

    satisfied_copies: Dict[str, int] = {}
    for name, area in free_areas.items():
        if not area.get("satisfied", True):
            continue
        source = area.get("compatible_with")
        if source not in placements:
            violations.append(f"free area {name!r} names no placed region")
            continue
        satisfied_copies[source] = satisfied_copies.get(source, 0) + 1
        a, b = areas[name], areas[source]
        if (a[2], a[3]) != (b[2], b[3]):
            violations.append(f"free area {name!r} differs in shape from {source!r}")
        elif not _inside(device, a) or not _inside(device, b):
            continue  # already reported as leaving the device
        elif any(
            device.type_at(a[0] + dc, a[1] + dr) != device.type_at(b[0] + dc, b[1] + dr)
            for dc in range(a[2])
            for dr in range(a[3])
        ):
            violations.append(f"free area {name!r} does not match {source!r}'s column pattern")
    for request in body.get("relocation") or ():
        if request.get("hard", True) and satisfied_copies.get(request["region"], 0) < int(
            request["copies"]
        ):
            violations.append(
                f"region {request['region']!r} has "
                f"{satisfied_copies.get(request['region'], 0)} free areas, "
                f"needs {request['copies']}"
            )

    metrics = result.get("metrics") or {}
    if not violations:
        expected = wasted_frames(body, placements)
        if metrics.get("wasted_frames") != expected:
            violations.append(
                f"reported wasted_frames {metrics.get('wasted_frames')} != {expected}"
            )
    return violations


def _inside(device: DeviceView, rect: Rect) -> bool:
    col, row, width, height = rect
    return (
        width >= 1 and height >= 1 and col >= 0 and row >= 0
        and col + width <= device.width and row + height <= device.height
    )
