"""Wire encoding of solve requests and responses.

The gateway speaks JSON: a ``POST /solve`` body is the canonical content
dictionary of a :class:`~repro.service.jobs.SolveJob` (exactly what
:meth:`SolveJob.spec_dict` produces, plus the fingerprint-neutral ``tag``).
This module is the inverse of :mod:`repro.service.jobs`: it rebuilds the
device grid, problem, relocation spec and solver options from their canonical
dictionaries, and guarantees the round trip is fingerprint-exact — a job
encoded by one process and decoded by the gateway hits the same cache entry
the original would.

All validation failures raise :class:`ProtocolError`, which the gateway maps
to a 400 response; nothing in a request body can take the server down.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.device.grid import FPGADevice, ForbiddenRect
from repro.device.resources import ResourceVector
from repro.device.tile import TileType
from repro.floorplan.metrics import ObjectiveWeights
from repro.floorplan.problem import Connection, FloorplanProblem, IOPin, Region
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationRequest, RelocationSpec
from repro.service.jobs import SolveJob

__all__ = [
    "ProtocolError",
    "DEADLINE_HEADER",
    "QUEUE_DEPTH_HEADER",
    "NO_FLOORPLAN_HEADER",
    "parse_deadline",
    "deadline_from_payload",
    "device_from_dict",
    "problem_from_dict",
    "relocation_from_list",
    "job_from_dict",
    "job_to_dict",
]

#: Per-request budget header: remaining wall-clock seconds the client is
#: willing to wait.  The router re-stamps it with the *remaining* budget on
#: every downstream forward, so each hop sees an honest number.  The body
#: field ``deadline_s`` is the equivalent in-band form; both are
#: fingerprint-neutral (a deadline changes how long we may solve, never what
#: the canonical answer is).
DEADLINE_HEADER = "X-Repro-Deadline"

#: Stamped by every gateway on every ``/solve`` response: the replica's
#: current micro-batcher queue depth.  The router folds it into a per-replica
#: EWMA and sheds at the front door when the fleet-wide depth crosses its
#: watermark.
QUEUE_DEPTH_HEADER = "X-Repro-Queue-Depth"

#: Stamped on a gateway's 503 for a clamped solve that found no floorplan.
#: The replica is healthy, so the router relays that 503 where it would mark
#: a draining replica down and retry the next one.
NO_FLOORPLAN_HEADER = "X-Repro-No-Floorplan"


class ProtocolError(ValueError):
    """A request body that cannot be decoded into a valid solve job."""


def parse_deadline(value: object) -> Optional[float]:
    """Decode a deadline budget (header value or ``deadline_s`` body field).

    Returns the budget in seconds, or ``None`` when absent/empty.  A value
    that is not a finite number raises :class:`ProtocolError` (the request is
    malformed, not merely impatient); zero and negative budgets are valid —
    they mean "already expired" and are shed with a 504 before any solving.
    """
    if value is None or value == "":
        return None
    try:
        budget = float(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed deadline {value!r}: not a number") from exc
    if budget != budget or budget in (float("inf"), float("-inf")):
        raise ProtocolError(f"malformed deadline {value!r}: must be finite")
    return budget


def deadline_from_payload(payload: object) -> Optional[float]:
    """The ``deadline_s`` field of a decoded request body, if present."""
    if isinstance(payload, Mapping):
        return parse_deadline(payload.get("deadline_s"))
    return None


def _require(data: Mapping, key: str, context: str):
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"{context}: missing field {key!r}") from exc


def _integer(value: object, what: str) -> int:
    """An integral JSON number as an ``int``; ``3.0`` passes, ``2.9`` and ``true`` do not."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and math.isfinite(value) and int(value) == value:
        return int(value)
    raise ProtocolError(f"{what} must be an integer, got {value!r}")


def _integers(values: List[object], what: str, kind: str) -> np.ndarray:
    """A list of integral JSON numbers as a float array, checked in one numpy pass."""
    kinds = set(map(type, values))
    try:
        if any(issubclass(k, bool) or not issubclass(k, numbers.Real) for k in kinds):
            raise TypeError
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"{what} must be {kind}") from exc
    fractional = array != np.floor(array)  # nan included; inf fails range checks
    if fractional.any():
        bad = values[int(np.argmax(fractional))]
        raise ProtocolError(f"{what} must be {kind}, got {bad!r}")
    return array


def _resources(data: Mapping[str, object], what: str) -> ResourceVector:
    return ResourceVector({k: _integer(v, f"{what} resource {k!r}") for k, v in data.items()})


def _tile_type(entry: Mapping[str, object]) -> TileType:
    name = str(_require(entry, "name", "tile type"))
    return TileType(
        name=name,
        resources=_resources(_require(entry, "resources", "tile type"), f"tile type {name!r}"),
        frames=_integer(_require(entry, "frames", "tile type"), f"tile type {name!r} frames"),
    )


def device_from_dict(data: Mapping[str, object]) -> FPGADevice:
    """Rebuild an :class:`FPGADevice` from its canonical content encoding.

    The inverse of :func:`repro.service.jobs.device_spec_dict`: tile types are
    re-interned in their original dense-index order and forbidden cells become
    1x1 forbidden rectangles (the fingerprint hashes cells, not rectangles, so
    the round trip is content-exact).  The grid and the forbidden cells are
    validated and mapped to tile types as whole arrays.
    """
    try:
        types = [_tile_type(entry) for entry in _require(data, "types", "device")]
        width = _integer(_require(data, "width", "device"), "device width")
        height = _integer(_require(data, "height", "device"), "device height")
        grid = list(_require(data, "grid", "device"))
        forbidden_cells = list(data.get("forbidden", ()))
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 — request bodies are untrusted
        raise ProtocolError(f"malformed device spec: {exc}") from exc
    if width <= 0 or height <= 0:
        raise ProtocolError(f"device extent must be positive, got {width}x{height}")
    if len(grid) != width * height:
        raise ProtocolError(
            f"device grid has {len(grid)} cells, expected {width}x{height}={width * height}"
        )
    indices = _integers(grid, "device grid cells", "tile-type indices")
    if ((indices < 0) | (indices >= len(types))).any():
        raise ProtocolError("device grid references an unknown tile-type index")
    cells = _integers(forbidden_cells, "forbidden cells", "cell indices")
    outside = (cells < 0) | (cells >= width * height)
    if outside.any():
        cell = cells[int(np.argmax(outside))]
        raise ProtocolError(f"forbidden cell {cell:.0f} outside the {width}x{height} grid")
    tile_types = np.asarray(types, dtype=object)[indices.astype(np.intp).reshape(width, height)]
    rects = [
        ForbiddenRect(f"cell{index}", *divmod(cell, height), 1, 1)
        for index, cell in enumerate(cells.astype(np.intp).tolist())
    ]
    try:
        return FPGADevice(str(data.get("name") or "device"), tile_types, forbidden=rects)
    except ValueError as exc:
        raise ProtocolError(f"invalid device: {exc}") from exc


def _region(entry: Mapping[str, object]) -> Region:
    name = str(_require(entry, "name", "region"))
    return Region(
        name=name,
        requirements=_resources(_require(entry, "requirements", "region"), f"region {name!r}"),
        max_width=entry.get("max_width"),
        max_height=entry.get("max_height"),
    )


def problem_from_dict(data: Mapping[str, object]) -> FloorplanProblem:
    """Rebuild a :class:`FloorplanProblem` from its canonical encoding."""
    device = device_from_dict(_require(data, "device", "problem"))
    try:
        regions = [_region(entry) for entry in _require(data, "regions", "problem")]
        connections = [
            Connection(
                source=str(_require(entry, "source", "connection")),
                target=str(_require(entry, "target", "connection")),
                weight=float(entry.get("weight", 1.0)),
            )
            for entry in data.get("connections", ())
        ]
        pins = [
            IOPin(
                name=str(_require(entry, "name", "pin")),
                col=_integer(_require(entry, "col", "pin"), "pin col"),
                row=_integer(_require(entry, "row", "pin"), "pin row"),
            )
            for entry in data.get("pins", ())
        ]
        return FloorplanProblem(
            device,
            regions,
            connections,
            pins,
            name=str(data.get("name") or "request"),
        )
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 — request bodies are untrusted
        raise ProtocolError(f"malformed problem spec: {exc}") from exc


def relocation_from_list(
    entries: Optional[Sequence[Mapping[str, object]]],
) -> Optional[RelocationSpec]:
    """Rebuild a relocation spec; an empty/missing list means none."""
    if not entries:
        return None
    try:
        return RelocationSpec(
            RelocationRequest(
                region=str(_require(entry, "region", "relocation request")),
                copies=_integer(
                    _require(entry, "copies", "relocation request"), "relocation copies"
                ),
                hard=bool(entry.get("hard", True)),
                weight=float(entry.get("weight", 1.0)),
            )
            for entry in entries
        )
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 — request bodies are untrusted
        raise ProtocolError(f"malformed relocation spec: {exc}") from exc


def job_from_dict(payload: Mapping[str, object]) -> SolveJob:
    """Decode a request body into a validated, fingerprintable solve job."""
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"request body must be a JSON object, got {type(payload).__name__}")
    problem = problem_from_dict(_require(payload, "problem", "request"))
    weights_data = payload.get("weights")
    try:
        options = SolverOptions.from_dict(payload.get("options") or {})
        weights = ObjectiveWeights(**weights_data) if weights_data else None
        return SolveJob(
            problem=problem,
            relocation=relocation_from_list(payload.get("relocation")),
            mode=str(payload.get("mode", "HO")),
            options=options,
            heuristic=str(payload.get("heuristic", "tessellation")),
            weights=weights,
            lexicographic=bool(payload.get("lexicographic", False)),
            tag=str(payload.get("tag", "")),
        )
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 — request bodies are untrusted
        raise ProtocolError(f"invalid solve job: {exc}") from exc


def job_to_dict(job: SolveJob) -> Dict[str, object]:
    """Encode a job as a request body (the client half of the protocol)."""
    data = job.spec_dict()
    if job.tag:
        data["tag"] = job.tag
    return data
