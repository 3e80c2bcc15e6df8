"""MILP-based floorplanner for partially-reconfigurable FPGAs.

This package re-implements the FCCM'14 floorplanner ([10] in the paper) that
the relocation extension builds on:

* :class:`~repro.floorplan.problem.Region` /
  :class:`~repro.floorplan.problem.FloorplanProblem` — the designer-facing
  problem description (regions, resource requirements, connectivity);
* :class:`~repro.floorplan.placement.Floorplan` — a solved placement;
* :mod:`~repro.floorplan.candidates` — the feasible candidate rectangles
  every placer selects from;
* :mod:`~repro.floorplan.milp_builder` — the candidate-rectangle MILP
  ("O" mode explores it in full);
* :mod:`~repro.floorplan.sequence_pair` and :mod:`~repro.floorplan.ho` — the
  sequence-pair-constrained "HO" mode seeded by a heuristic solution;
* :class:`~repro.floorplan.solver.FloorplanSolver` — the user-facing facade
  that also wires in the relocation extension of :mod:`repro.relocation`;
* :mod:`~repro.floorplan.metrics` / :mod:`~repro.floorplan.verify` — solution
  metrics and an MILP-independent feasibility checker.
"""

from repro.floorplan.geometry import Rect
from repro.floorplan.problem import Connection, FloorplanProblem, IOPin, Region
from repro.floorplan.placement import Floorplan, RegionPlacement
from repro.floorplan.metrics import FloorplanMetrics, ObjectiveWeights, evaluate_floorplan
from repro.floorplan.sequence_pair import SequencePair
from repro.floorplan.verify import VerificationReport, verify_floorplan
from repro.floorplan.solver import FloorplanSolver, SolveReport

__all__ = [
    "Rect",
    "Region",
    "IOPin",
    "Connection",
    "FloorplanProblem",
    "RegionPlacement",
    "Floorplan",
    "ObjectiveWeights",
    "FloorplanMetrics",
    "evaluate_floorplan",
    "SequencePair",
    "VerificationReport",
    "verify_floorplan",
    "FloorplanSolver",
    "SolveReport",
]
