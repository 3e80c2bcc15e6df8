"""HO ("Heuristic Optimal") mode.

HO first obtains a feasible solution from a fast heuristic, extracts its
sequence-pair representation and uses the implied relative positions as
additional constraints of the MILP, so that the exact solver only improves the
solution *within* that (much smaller) portion of the search space.

Section II.A of the 2015 paper adds one requirement for the relocation
extension: when relocation is used as a constraint, the heuristic seed must
also contain positions for the free-compatible areas so that the sequence pair
naturally covers them and the non-overlapping guarantees extend to every area.
:class:`HOSeeder` implements exactly that — it places the regions with a
heuristic and then reserves free-compatible areas geometrically.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

from repro.floorplan.candidates import Candidates
from repro.floorplan.placement import Floorplan, RegionPlacement
from repro.floorplan.problem import FloorplanProblem
from repro.floorplan.sequence_pair import SequencePair


class HOSeedError(RuntimeError):
    """Raised when no heuristic seed suitable for HO could be produced."""


@dataclasses.dataclass
class HOSeed:
    """A heuristic seed for HO: a floorplan and its sequence pair."""

    floorplan: Floorplan
    sequence_pair: SequencePair

    def fixed_relations(self) -> Dict[Tuple[str, str], str]:
        """The relative-position constraints handed to the MILP builder."""
        return self.sequence_pair.relations()


class HOSeeder:
    """Produce HO seeds, optionally with free-compatible areas included.

    ``candidates`` are the regions' candidate rectangles
    (:func:`~repro.floorplan.candidates.enumerate_areas`); every placer
    selects from them, so a solve that enumerated them for its MILP does not
    enumerate them again.  Each placer enumerates them when omitted.
    """

    def __init__(
        self, problem: FloorplanProblem, candidates: Mapping[str, Candidates] | None = None
    ) -> None:
        self.problem = problem
        self.candidates = candidates

    # ------------------------------------------------------------------
    def seed_regions(self, heuristic: str = "tessellation") -> Floorplan:
        """Run a heuristic placer for the regions only.

        ``heuristic`` is ``"tessellation"``, ``"first-fit"`` or ``"annealing"``;
        the tessellation baseline is tried first by default and the others are
        used as fallbacks, because HO only needs *a* feasible solution.
        """
        from repro.baselines.annealing import annealing_floorplan
        from repro.baselines.first_fit import first_fit_floorplan
        from repro.baselines.tessellation import tessellation_floorplan

        def tessellation_unaligned(problem, candidates):
            return tessellation_floorplan(problem, align_rows=False, candidates=candidates)

        order = {
            "tessellation": (
                tessellation_floorplan,
                tessellation_unaligned,
                first_fit_floorplan,
                annealing_floorplan,
            ),
            "first-fit": (
                first_fit_floorplan,
                tessellation_floorplan,
                tessellation_unaligned,
                annealing_floorplan,
            ),
            "annealing": (
                annealing_floorplan,
                tessellation_unaligned,
                tessellation_floorplan,
                first_fit_floorplan,
            ),
        }
        if heuristic not in order:
            raise ValueError(f"unknown heuristic {heuristic!r}")
        for placer in order[heuristic]:
            floorplan = placer(self.problem, candidates=self.candidates)
            if floorplan is not None and floorplan.is_complete:
                from repro.floorplan.verify import verify_floorplan

                if verify_floorplan(floorplan, check_relocation=False).is_feasible:
                    return floorplan
        raise HOSeedError(
            f"no heuristic produced a feasible seed for {self.problem.name!r}"
        )

    # ------------------------------------------------------------------
    def add_free_areas(self, floorplan: Floorplan, spec) -> Floorplan:
        """Reserve free-compatible areas on top of a heuristic floorplan.

        Areas are selected geometrically (see
        :func:`repro.relocation.compatibility.enumerate_free_compatible_areas`);
        for hard requests a failure to find all copies raises
        :class:`HOSeedError`, because HO with relocation-as-a-constraint needs
        the full set of areas in the seed.  For soft requests the missing
        copies simply stay out of the seed (and thus out of the sequence
        pair) — the MILP can still try to recover them.
        """
        from repro.relocation.compatibility import (
            enumerate_free_compatible_areas,
            select_disjoint_areas,
        )

        partition = self.problem.partition
        seeded = Floorplan(
            problem=self.problem,
            placements=dict(floorplan.placements),
            solver_status=floorplan.solver_status,
        )
        for request in spec.requests:
            if request.region not in seeded.placements:
                raise HOSeedError(
                    f"heuristic seed does not place region {request.region!r}"
                )
            region_rect = seeded.placements[request.region].rect
            occupied = [p.rect for p in seeded.all_placements()]
            candidates = enumerate_free_compatible_areas(
                partition, region_rect, occupied
            )
            chosen = select_disjoint_areas(candidates, request.copies)
            if len(chosen) < request.copies and request.hard:
                raise HOSeedError(
                    f"could only reserve {len(chosen)}/{request.copies} free-compatible "
                    f"areas for {request.region!r} in the heuristic seed"
                )
            for index, rect in enumerate(chosen, start=1):
                name = spec.area_name(request.region, index)
                seeded.free_areas[name] = RegionPlacement(
                    name=name, rect=rect, compatible_with=request.region
                )
        return seeded

    # ------------------------------------------------------------------
    def build_seed(
        self,
        spec=None,
        heuristic: str = "tessellation",
        initial: Optional[Floorplan] = None,
    ) -> HOSeed:
        """End-to-end seed construction (regions, free areas, sequence pair).

        With a relocation spec and no externally-provided seed, the
        relocation-aware greedy constructor is tried first: it interleaves
        region placement and free-area reservation, which succeeds in many
        cases where reserving areas *after* a relocation-oblivious placement
        fails (exactly the Section II.A requirement on HO seeds).
        """
        want_areas = spec is not None and len(spec) > 0
        if initial is not None:
            floorplan = initial
            if want_areas and not initial.free_areas:
                floorplan = self.add_free_areas(floorplan, spec)
        elif want_areas:
            from repro.baselines.relocation_greedy import relocation_aware_greedy
            from repro.floorplan.verify import verify_floorplan

            floorplan = relocation_aware_greedy(self.problem, spec, self.candidates)
            if (
                floorplan is None
                or not floorplan.is_complete
                or not verify_floorplan(floorplan).is_feasible
            ):
                floorplan = self.add_free_areas(self.seed_regions(heuristic), spec)
        else:
            floorplan = self.seed_regions(heuristic)
        sequence_pair = SequencePair.from_floorplan(floorplan)
        return HOSeed(floorplan=floorplan, sequence_pair=sequence_pair)
