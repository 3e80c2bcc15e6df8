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

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.floorplan.geometry": ["Rect"],
    "repro.floorplan.problem": ["Region", "IOPin", "Connection", "FloorplanProblem"],
    "repro.floorplan.placement": ["RegionPlacement", "Floorplan"],
    "repro.floorplan.metrics": [
        "ObjectiveWeights",
        "FloorplanMetrics",
        "evaluate_floorplan",
    ],
    "repro.floorplan.sequence_pair": ["SequencePair"],
    "repro.floorplan.verify": ["VerificationReport", "verify_floorplan"],
    "repro.floorplan.solver": ["FloorplanSolver", "SolveReport"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
