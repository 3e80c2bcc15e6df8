"""Serializable solve-job specifications with deterministic content hashes.

A :class:`SolveJob` captures *everything* that determines the outcome of one
:class:`~repro.floorplan.solver.FloorplanSolver` run — the problem (device,
regions, connectivity), the relocation spec, the solve mode, the MILP options
and the objective weights.  Two jobs with identical content produce identical
fingerprints, which is what makes the solve cache (:mod:`repro.service.cache`)
content-addressed and lets the batch executor deduplicate identical work.

The fingerprint is a SHA-256 over a canonical JSON encoding: dictionaries are
key-sorted, floats are repr-encoded, and collections that carry no semantic
order (relocation requests) are sorted before hashing, so the hash is stable
across sessions and processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional

import numpy as np

from repro.floorplan.metrics import ObjectiveWeights
from repro.floorplan.problem import FloorplanProblem
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec


def device_spec_dict(device) -> Dict[str, object]:
    """Canonical content encoding of an :class:`~repro.device.grid.FPGADevice`.

    The encoding covers the full tile grid (per-cell type index), the tile
    type definitions (frames, resources) and the forbidden cells — everything
    the floorplanner's feasible set depends on.  Cells are numbered
    column-major (``col * height + row``), read straight off the device
    arrays.  The device *name* is included only as metadata and does not
    disambiguate distinct grids.
    """
    types = [
        {
            "name": tile_type.name,
            "frames": tile_type.frames,
            "resources": tile_type.resources.as_dict(),
        }
        for tile_type in device.tile_type_list
    ]
    return {
        "name": device.name,
        "width": device.width,
        "height": device.height,
        "types": types,
        "grid": device.type_index_grid().ravel().tolist(),
        "forbidden": np.flatnonzero(device.forbidden_mask()).tolist(),
    }


def problem_spec_dict(problem: FloorplanProblem) -> Dict[str, object]:
    """Canonical content encoding of a :class:`FloorplanProblem`."""
    return {
        "name": problem.name,
        "device": device_spec_dict(problem.device),
        "regions": [
            {
                "name": region.name,
                "requirements": region.requirements.as_dict(),
                "max_width": region.max_width,
                "max_height": region.max_height,
            }
            for region in problem.regions
        ],
        "connections": [
            # weights canonicalize to float so Connection(weight=16) and
            # Connection(weight=16.0) — and a job decoded back off the wire —
            # hash identically
            {"source": c.source, "target": c.target, "weight": float(c.weight)}
            for c in problem.connections
        ],
        "pins": [
            {"name": pin.name, "col": pin.col, "row": pin.row}
            for pin in problem.pins
        ],
    }


def relocation_spec_dict(spec: Optional[RelocationSpec]) -> List[Dict[str, object]]:
    """Canonical (region-sorted) encoding of a relocation spec."""
    if spec is None:
        return []
    return sorted(
        (
            {
                "region": request.region,
                "copies": int(request.copies),
                "hard": bool(request.hard),
                "weight": float(request.weight),
            }
            for request in spec.requests
        ),
        key=lambda entry: entry["region"],
    )


@dataclasses.dataclass
class SolveJob:
    """One unit of floorplanning work for the batch service.

    Attributes
    ----------
    problem:
        The floorplanning instance to solve.
    relocation:
        Optional relocation spec (constraint and/or metric requests).
    mode:
        ``"O"`` or ``"HO"`` (see :class:`~repro.floorplan.solver.FloorplanSolver`).
    options:
        MILP backend options; part of the fingerprint because time limits and
        gaps change the result.
    heuristic:
        HO seed heuristic (ignored in O mode but still hashed — it is part of
        the job spec as given).
    weights:
        Objective weights; ``None`` means the paper default.
    lexicographic:
        Run the two-phase Section VI protocol instead of the weighted sum.
    tag:
        Free-form label for reports.  Deliberately *excluded* from the
        fingerprint: tagging a job differently does not change its result, so
        retagged re-runs still hit the cache.
    """

    problem: FloorplanProblem
    relocation: Optional[RelocationSpec] = None
    mode: str = "HO"
    options: SolverOptions = dataclasses.field(default_factory=SolverOptions)
    heuristic: str = "tessellation"
    weights: Optional[ObjectiveWeights] = None
    lexicographic: bool = False
    tag: str = ""

    def __post_init__(self) -> None:
        self.mode = self.mode.upper()
        if self.mode not in ("O", "HO"):
            raise ValueError(f"mode must be 'O' or 'HO', got {self.mode!r}")
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    def spec_dict(self) -> Dict[str, object]:
        """The canonical content dictionary the fingerprint is computed over."""
        weights = self.weights or ObjectiveWeights.paper_default()
        options = self.options.as_dict()
        # canonicalize numeric option fields so int/float aliasing
        # (time_limit=30 vs 30.0) and wire-decoded jobs hash identically
        for key in ("time_limit", "mip_gap"):
            if options.get(key) is not None:
                options[key] = float(options[key])
        options["max_nodes"] = int(options["max_nodes"])
        return {
            "problem": problem_spec_dict(self.problem),
            "relocation": relocation_spec_dict(self.relocation),
            "mode": self.mode,
            "options": options,
            "heuristic": self.heuristic,
            "weights": {
                key: float(value)
                for key, value in dataclasses.asdict(weights).items()
            },
            "lexicographic": self.lexicographic,
        }

    @property
    def fingerprint(self) -> str:
        """SHA-256 hex digest of the canonical job content (cached).

        The problem and device *names* are stripped before hashing: they are
        labels, not content, so renaming an otherwise identical instance still
        hits the cache.  Region and pin names stay in — constraints and
        connectivity reference them.
        """
        if self._fingerprint is None:
            spec = self.spec_dict()
            problem = dict(spec["problem"])
            problem["name"] = None
            problem["device"] = dict(problem["device"], name=None)
            spec["problem"] = problem
            encoded = json.dumps(
                spec, sort_keys=True, separators=(",", ":"), default=repr
            )
            self._fingerprint = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
        return self._fingerprint

    @property
    def short_id(self) -> str:
        """First 12 hex characters of the fingerprint (for logs and tables)."""
        return self.fingerprint[:12]

    @property
    def name(self) -> str:
        """Human-readable job label used in reports."""
        label = f"{self.problem.name}[{self.mode}]"
        if self.relocation is not None and len(self.relocation) > 0:
            label += f"+{self.relocation.total_copies}fca"
        if self.tag:
            label += f"#{self.tag}"
        return label

    def __repr__(self) -> str:
        return f"SolveJob({self.name!r}, {self.short_id})"
