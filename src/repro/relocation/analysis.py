"""Relocation feasibility analysis (the first experiment of Section VI).

The paper begins its evaluation with a *feasibility test*: for every
reconfigurable region, ask the floorplanner whether a placement exists in
which that single region gets one free-compatible area (while all other
regions are still placed).  For the SDR design the answer is negative for the
matched filter and the video decoder and positive for the three remaining
regions, which the paper then calls the *relocatable regions*.

:func:`feasibility_analysis` reproduces that test; :func:`count_reachable_copies`
is a purely geometric helper used by the HO seeder and the run-time manager to
enumerate relocation targets of an already-solved floorplan.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.floorplan.placement import Floorplan
from repro.floorplan.problem import FloorplanProblem
from repro.milp import SolverOptions
from repro.relocation.compatibility import (
    enumerate_free_compatible_areas,
    select_disjoint_areas,
)
from repro.relocation.spec import RelocationSpec


@dataclasses.dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the feasibility test for one region."""

    region: str
    feasible: bool
    status: str
    solve_time: float
    floorplan: Optional[Floorplan] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "feasible" if self.feasible else "infeasible"
        return f"{self.region}: {verdict} ({self.status}, {self.solve_time:.1f}s)"


def feasibility_analysis(
    problem: FloorplanProblem,
    regions: Sequence[str] | None = None,
    options: SolverOptions | None = None,
    mode: str = "O",
) -> List[FeasibilityResult]:
    """Run the Section VI feasibility test.

    For each region (default: all of them) a floorplan is solved that requests
    exactly one *hard* free-compatible area for that region and none for the
    others.  A region is *relocatable* when that problem is feasible.

    Parameters
    ----------
    problem:
        The floorplanning instance.
    regions:
        Region names to test; defaults to every region of the problem.
    options:
        MILP solver options (a time limit is strongly recommended).
    mode:
        Floorplanner mode, ``"O"`` or ``"HO"``.
    """
    from repro.floorplan.solver import FloorplanSolver

    names = list(regions) if regions is not None else list(problem.region_names)
    results: List[FeasibilityResult] = []
    for name in names:
        spec = RelocationSpec.as_constraint({name: 1})
        solver = FloorplanSolver(problem, relocation=spec, mode=mode, options=options)
        report = solver.solve()
        feasible = report.floorplan.is_complete and report.solution.status.has_solution
        results.append(
            FeasibilityResult(
                region=name,
                feasible=bool(feasible),
                status=report.solution.status.value,
                solve_time=report.solution.solve_time,
                floorplan=report.floorplan if feasible else None,
            )
        )
    return results


def count_reachable_copies(
    floorplan: Floorplan, region_name: str, max_copies: int | None = None
) -> int:
    """How many mutually disjoint free-compatible areas exist geometrically.

    Unlike the MILP (which co-optimizes placements and free areas), this works
    on a *fixed* floorplan: the region placements stay where they are and only
    the free space is searched.  It is therefore a lower bound on what the
    relocation-aware floorplanner can achieve, and is the quantity available
    to a run-time manager after the design has been implemented.
    """
    placement = floorplan.placements[region_name]
    occupied = [p.rect for p in floorplan.all_placements()]
    candidates = enumerate_free_compatible_areas(
        floorplan.problem.partition, placement.rect, occupied
    )
    limit = max_copies if max_copies is not None else len(candidates)
    return len(select_disjoint_areas(candidates, limit))


def reachable_copies_by_region(
    floorplan: Floorplan, max_copies: int | None = None
) -> Dict[str, int]:
    """:func:`count_reachable_copies` for every placed region."""
    return {
        name: count_reachable_copies(floorplan, name, max_copies)
        for name in floorplan.placements
    }
