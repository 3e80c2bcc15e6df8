"""Bitstream-relocation support for the floorplanner (the paper's contribution).

* :mod:`~repro.relocation.compatibility` — the geometric predicates behind
  Definitions .1 and .2 (area compatibility, free-compatibility) plus an
  enumerator of compatible positions;
* :mod:`~repro.relocation.spec` — the designer-facing
  :class:`~repro.relocation.spec.RelocationSpec` (how many free-compatible
  areas per region, hard constraint vs soft metric, weights);
* :mod:`~repro.relocation.constraints` — the MILP extension of Section IV
  (candidate assignment and signature rows, eqs. 4–12);
* :mod:`~repro.relocation.metric` — the soft-constraint variant of Section V
  (violation binaries, eqs. 11–13, the RLcost objective term);
* :mod:`~repro.relocation.analysis` — the Section VI feasibility analysis and
  a geometric enumerator of free-compatible areas for already-solved
  floorplans.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.relocation.compatibility": [
        "areas_compatible",
        "enumerate_free_compatible_areas",
    ],
    "repro.relocation.spec": ["RelocationRequest", "RelocationSpec"],
    "repro.relocation.constraints": ["RelocationRows", "apply_relocation_constraints"],
    "repro.relocation.metric": ["relocation_cost", "relocation_summary"],
    "repro.relocation.analysis": [
        "FeasibilityResult",
        "feasibility_analysis",
        "count_reachable_copies",
    ],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
