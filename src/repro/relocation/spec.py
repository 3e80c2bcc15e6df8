"""Designer-facing relocation requirements.

Section II.A of the paper distinguishes two ways of asking the floorplanner
for free-compatible areas:

* **relocation as a constraint** — the solution is feasible only if every
  requested area is found (Section IV);
* **relocation as a metric** — requested areas are desirable but optional;
  each missed area costs ``cw[c]`` in the objective (Section V).

Both modes, and their combination, are expressed with a
:class:`RelocationSpec`, which expands into the
:class:`~repro.floorplan.milp_builder.AreaSpec` entries handed to the MILP
builder.  The free-compatible areas follow the paper's naming convention:
the region name followed by a copy number (``"Signal Decoder 2"``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping

from repro.device.resources import ResourceVector
from repro.floorplan.problem import FloorplanProblem

if TYPE_CHECKING:
    from repro.floorplan.milp_builder import AreaSpec


@dataclasses.dataclass(frozen=True)
class RelocationRequest:
    """Free-compatible areas requested for one region.

    Attributes
    ----------
    region:
        Name of the reconfigurable region.
    copies:
        Number of free-compatible areas to reserve.
    hard:
        ``True`` = relocation as a constraint, ``False`` = as a metric.
    weight:
        ``cw[c]`` applied to every copy when ``hard`` is false.
    """

    region: str
    copies: int
    hard: bool = True
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.copies <= 0:
            raise ValueError("a relocation request needs at least one copy")
        if self.weight <= 0:
            raise ValueError("relocation weight must be positive")


class RelocationSpec:
    """A collection of per-region relocation requests."""

    def __init__(self, requests: Iterable[RelocationRequest] = ()) -> None:
        self._requests: Dict[str, RelocationRequest] = {}
        for request in requests:
            if request.region in self._requests:
                raise ValueError(f"duplicate relocation request for {request.region!r}")
            self._requests[request.region] = request

    # ------------------------------------------------------------------
    @classmethod
    def as_constraint(cls, copies_by_region: Mapping[str, int]) -> "RelocationSpec":
        """Relocation as a constraint: all requested areas must be found."""
        return cls(
            RelocationRequest(region=name, copies=count, hard=True)
            for name, count in copies_by_region.items()
        )

    @classmethod
    def as_metric(
        cls,
        copies_by_region: Mapping[str, int],
        weights: Mapping[str, float] | None = None,
    ) -> "RelocationSpec":
        """Relocation as a metric: missed areas are penalized, not forbidden."""
        weights = weights or {}
        return cls(
            RelocationRequest(
                region=name, copies=count, hard=False, weight=weights.get(name, 1.0)
            )
            for name, count in copies_by_region.items()
        )

    @classmethod
    def empty(cls) -> "RelocationSpec":
        """A spec requesting no free-compatible areas."""
        return cls()

    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[RelocationRequest]:
        """Requests in insertion order."""
        return list(self._requests.values())

    @property
    def regions(self) -> List[str]:
        """Regions with at least one requested copy."""
        return list(self._requests.keys())

    @property
    def total_copies(self) -> int:
        """Total number of requested free-compatible areas."""
        return sum(request.copies for request in self._requests.values())

    @property
    def has_hard_requests(self) -> bool:
        """Whether any request is a hard constraint."""
        return any(request.hard for request in self._requests.values())

    def request_for(self, region: str) -> RelocationRequest:
        """The request attached to a region."""
        return self._requests[region]

    def __contains__(self, region: str) -> bool:
        return region in self._requests

    def __len__(self) -> int:
        return len(self._requests)

    def __bool__(self) -> bool:
        return bool(self._requests)

    # ------------------------------------------------------------------
    def area_name(self, region: str, copy_index: int) -> str:
        """Name of the ``copy_index``-th free-compatible area of a region.

        Follows the paper's convention used in Figures 4-5 (``"Signal
        Decoder 2"`` is the second reserved area of the Signal Decoder).
        """
        return f"{region} {copy_index}"

    def build_area_specs(self, problem: FloorplanProblem) -> List[AreaSpec]:
        """Expand the spec into the free-compatible-area :class:`AreaSpec`\\ s."""
        # Deferred: a spec is described and fingerprinted without the MILP stack.
        from repro.floorplan.milp_builder import AreaSpec

        specs: List[AreaSpec] = []
        for request in self._requests.values():
            region = problem.region_by_name(request.region)  # validates the name
            for copy_index in range(1, request.copies + 1):
                specs.append(
                    AreaSpec(
                        name=self.area_name(region.name, copy_index),
                        requirements=ResourceVector.zero(),
                        compatible_with=region.name,
                        soft=not request.hard,
                        weight=request.weight,
                    )
                )
        return specs

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{req.region}: {req.copies}{'' if req.hard else ' (soft)'}"
            for req in self._requests.values()
        )
        return f"RelocationSpec({inner})"
