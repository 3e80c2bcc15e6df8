"""MILP extension for bitstream relocation (Sections IV and V).

Given a base floorplanning model (:class:`~repro.floorplan.milp_builder.FloorplanMILP`)
that already lists the free-compatible areas among its areas, this module
adds, for every free-compatible area ``c`` tied to region ``n``:

* the assignment row of ``c``: ``sum_f z[c,f] == 1`` for a hard area
  (relocation as a constraint), ``sum_f z[c,f] == 1 - v[c]`` for a soft one
  (relocation as a metric), so a violated soft area occupies nothing;
* one compatibility row per signature ``s`` of ``c``'s candidates:
  ``sum_{f in s} z[c,f] <= sum_{r in s} z[n,r]``.

A signature is a candidate's (height, column-type sequence), which is exactly
:func:`~repro.relocation.compatibility.areas_compatible`.  The rows encode
eqs. 4-12 of the paper over candidates instead of portion variables:

* eqs. 4-5 (``o[n,p]`` marks the first covered portion) are implicit: a
  candidate's column fixes its first portion;
* eq. 6 (equal heights), eq. 7 (equal portion counts), eq. 10 (matching tile
  types, the tightened eq. 8) and eq. 9 (equal tile counts per covered
  portion) together say the two rectangles share a signature, which the
  compatibility rows force whenever ``c`` selects a candidate;
* eqs. 11-12 (the soft forms) become the ``1 - v[c]`` assignment row; the
  builder's sequence-pair rows need no relaxation, because a violated area
  selects no candidate and so reads 0 in each of them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro.floorplan.candidates import signature_keys
from repro.floorplan.milp_builder import FloorplanMILP


@dataclasses.dataclass
class RelocationRows:
    """What :func:`apply_relocation_constraints` added to the model."""

    #: (free area, region) pairs, in area order
    pairs: List[Tuple[str, str]]
    #: compatibility rows per free area (one per signature of its candidates)
    signatures: Dict[str, int]
    num_constraints_added: int


def apply_relocation_constraints(milp: FloorplanMILP) -> RelocationRows:
    """Attach the Section IV/V rows to a built floorplanning model.

    The free-compatible areas and their ``compatible_with`` / ``soft``
    attributes are read from ``milp.areas``.
    """
    model = milp.model
    constraints_before = len(model.constraints)
    pairs: List[Tuple[str, str]] = []
    signatures: Dict[str, int] = {}
    for area in milp.free_area_specs():
        free, region = area.name, area.compatible_with
        pairs.append((free, region))
        key = free.replace(" ", "_").replace(",", "_")
        assign = dict.fromkeys(milp.z[free], 1.0)
        if area.soft:
            assign[milp.violation[free]] = 1.0
        model.add_eq_terms(assign, 1.0, name=f"assign[{key}]")

        free_keys = signature_keys(milp.partition, milp.candidates[free])
        region_keys = signature_keys(milp.partition, milp.candidates[region])
        free_vars, region_vars = milp.z[free], milp.z[region]
        unique = np.unique(free_keys)
        for signature in unique.tolist():
            terms = {free_vars[i]: 1.0 for i in np.flatnonzero(free_keys == signature).tolist()}
            for i in np.flatnonzero(region_keys == signature).tolist():
                terms[region_vars[i]] = -1.0
            model.add_le_terms(terms, 0.0, name=f"rel_sig[{key},{signature}]")
        signatures[free] = int(unique.size)

    return RelocationRows(
        pairs=pairs,
        signatures=signatures,
        num_constraints_added=len(model.constraints) - constraints_before,
    )
