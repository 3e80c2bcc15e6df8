"""Candidate-rectangle MILP formulation of the floorplanning problem.

Every area — reconfigurable region or free-compatible area (set ``FC`` of the
paper, which Section IV adds to ``N``) — picks exactly one rectangle from an
explicit list of *feasible candidates*: the rectangles that avoid forbidden
cells, respect the area's extent caps and supply its resource requirements.
:func:`~repro.floorplan.candidates.enumerate_candidates` lists them with
summed-area tables over the tile-type grid, one numpy pass per width, so the
FCCM'14 constraints on coverage, forbidden cells and resources ([10]) hold by
construction and the model only has to choose:

* one binary ``z[n,i]`` per candidate ``i`` of area ``n``, with
  ``sum_i z[n,i] == 1`` for every region;
* wasted frames, perimeter and the relocation cost of eq. 14 as objective
  coefficients of ``z`` (and of the violation binaries ``v[c]``);
* wirelength rows written directly over ``z`` with the candidate centres as
  coefficients;
* non-overlap: for each pair with a fixed HO relation, sequence-pair rows
  written as cut-line cliques ``sum_{end_i > t} z[a,i] + sum_{start_j <= t}
  z[b,j] <= 1`` (``a`` must end before ``b`` starts on the relation's axis);
  for every other pair, one cell-occupancy row ``sum z <= 1`` per device cell
  over the candidates covering it.

Free-compatible areas are completed by
:func:`repro.relocation.constraints.apply_relocation_constraints`, which adds
their assignment rows and the compatibility rows of eqs. 4-12.

Before any variable is created, exact filters shrink the candidate lists.  A
free area keeps only rectangles whose signature some candidate of its region
shares.  With ``prune`` on, every candidate that no candidate of a related
area can stand beside is dropped as well (a ``left`` area's candidate ending
after the last start among its partner's candidates, and the mirror image);
the two filters run together until nothing changes.  Both depend only on
feasibility.  Given an incumbent floorplan (the HO seed), the builder then
drops every region candidate whose wasted frames, added to every other
region's minimum, already exceed the incumbent's eq.-14 objective: no solution
at least as good as the incumbent can use it, so this filter is exact too.
The incumbent the filter accepted is also the model's MIP start
(:attr:`FloorplanMILP.start`): every candidate it selects survives the filters,
so it maps onto ``z`` rectangle by rectangle.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.device.partition import ColumnarPartition
from repro.device.resources import ResourceVector
from repro.floorplan import sequence_pair as sp
from repro.floorplan.candidates import Candidates, enumerate_areas, signature_keys
from repro.floorplan.geometry import Rect
from repro.floorplan.metrics import (
    ObjectiveWeights,
    normalization_constants,
    total_perimeter,
    wasted_frames,
    wirelength,
)
from repro.floorplan.placement import Floorplan, RegionPlacement
from repro.floorplan.problem import FloorplanProblem, Region
from repro.milp import LinExpr, Model, Variable, quicksum
from repro.milp.solution import MILPSolution


@dataclasses.dataclass(frozen=True)
class AreaSpec:
    """One area handled by the MILP: a reconfigurable region or an FC area.

    Attributes
    ----------
    name:
        Unique area name.
    requirements:
        Tiles required per resource type (zero for free-compatible areas,
        whose footprint is fixed by the compatibility constraints instead).
    compatible_with:
        For free-compatible areas, the region whose footprint must be matched
        (parameter ``s[c,n]`` of the paper collapses to this single reference
        because the SDR case study — and the common case — ties each FC area
        to exactly one region).
    soft:
        Relocation-as-a-metric area: its constraints may be violated at a
        price (Section V); a violation binary ``v[c]`` is created.
    weight:
        ``cw[c]`` — weight of the area in the relocation cost (eq. 13).
    max_width, max_height:
        Optional extent caps.
    """

    name: str
    requirements: ResourceVector
    compatible_with: Optional[str] = None
    soft: bool = False
    weight: float = 1.0
    max_width: Optional[int] = None
    max_height: Optional[int] = None

    @classmethod
    def for_region(cls, region: Region) -> "AreaSpec":
        """The area of a reconfigurable region."""
        return cls(
            name=region.name,
            requirements=region.requirements,
            max_width=region.max_width,
            max_height=region.max_height,
        )

    @property
    def is_free_area(self) -> bool:
        """True for free-compatible areas."""
        return self.compatible_with is not None


@dataclasses.dataclass
class FloorplanMILP:
    """The candidate-rectangle model plus the handles its users need.

    ``candidates[n]`` and ``z[n]`` are parallel: ``z[n][i]`` selects the
    rectangle ``candidates[n].rect(i)``.  The relocation extension
    (:mod:`repro.relocation.constraints`) and the solver facade both work
    through this object.

    ``enumerated`` counts every feasible candidate, ``related`` the ones left
    after the signature and relation filters, ``kept`` the ones the model
    holds after the incumbent filter as well.  ``filter_weights`` are the
    objective weights the filter was computed with (``None`` when nothing was
    filtered): the model is exact only for those weights, so
    :meth:`set_objective` refuses others until :meth:`cap_wasted_frames`
    releases the filter.

    ``start`` is the incumbent the filter accepted as a complete assignment
    of the model's variables (``None`` when nothing was filtered): one
    selected candidate per placed area, ``v = 1`` for a soft area it leaves
    out and each wirelength distance at its value.  The solver facade passes
    it to the backend as the MIP start.
    """

    problem: FloorplanProblem
    partition: ColumnarPartition
    areas: Tuple[AreaSpec, ...]
    model: Model
    candidates: Dict[str, Candidates]
    z: Dict[str, List[Variable]]
    violation: Dict[str, Variable]
    wasted_frames_expr: LinExpr
    wirelength_expr: LinExpr
    perimeter_expr: LinExpr
    norms: Dict[str, float]
    enumerated: int
    related: int
    filter_weights: Optional[ObjectiveWeights] = None
    filter_bound: Optional[int] = None
    start: Optional[Dict[Variable, float]] = None

    # ------------------------------------------------------------------
    @property
    def kept(self) -> int:
        """Candidates (binaries ``z``) in the model."""
        return sum(len(c) for c in self.candidates.values())

    def free_area_specs(self) -> List[AreaSpec]:
        """The free-compatible areas of the model."""
        return [area for area in self.areas if area.is_free_area]

    def relocation_cost_expr(self) -> LinExpr:
        """``RLcost`` of eq. 13: weighted sum of violation binaries."""
        return quicksum(
            area.weight * self.violation[area.name]
            for area in self.areas
            if area.soft and area.name in self.violation
        )

    def relocation_cost_max(self) -> float:
        """``RLmax`` of eq. 15."""
        total = sum(area.weight for area in self.areas if area.soft)
        return max(total, 1.0)

    # ------------------------------------------------------------------
    def set_objective(self, weights: ObjectiveWeights | None = None) -> None:
        """Install the normalized weighted objective of eq. 14."""
        weights = weights or ObjectiveWeights.paper_default()
        if self.filter_weights is not None and weights != self.filter_weights:
            raise ValueError(
                f"candidates were filtered for {self.filter_weights}; rebuild the model "
                f"for {weights} (or with prune=False)"
            )
        objective = (
            weights.wirelength * self.wirelength_expr * (1.0 / self.norms["wirelength"])
            + weights.perimeter * self.perimeter_expr * (1.0 / self.norms["perimeter"])
            + weights.wasted_frames
            * self.wasted_frames_expr
            * (1.0 / self.norms["wasted_frames"])
        )
        if weights.relocation > 0:
            objective = objective + weights.relocation * self.relocation_cost_expr() * (
                1.0 / self.relocation_cost_max()
            )
        self.model.minimize(objective)

    def cap_wasted_frames(self, value: float) -> None:
        """Add the lexicographic area cap ``wasted frames <= value``.

        On a filtered model the cap is tightened to the filter's bound when
        that is smaller.  No solution under it can use a dropped candidate,
        so the model is then exact for any objective and the filter is
        released, together with the start, which the cap may cut off.
        """
        if self.filter_bound is not None:
            value = min(value, self.filter_bound)
        self.model.add(self.wasted_frames_expr <= value + 1e-6, name="lex_area_cap")
        self.filter_weights = None
        self.filter_bound = None
        self.start = None

    # ------------------------------------------------------------------
    def extract(self, solution: MILPSolution) -> Floorplan:
        """Turn an MILP solution into a :class:`Floorplan`.

        A soft free area whose violation binary is set selects no candidate;
        it is still reported, with ``satisfied=False``.
        """
        floorplan = Floorplan(
            problem=self.problem,
            objective=solution.objective,
            solve_time=solution.solve_time,
            solver_status=solution.status.value,
            metadata={
                "backend": solution.backend,
                "model_stats": str(self.model.stats()),
                "node_count": solution.node_count,
                "bound": solution.bound,
            },
        )
        if not solution.status.has_solution:
            return floorplan
        for area in self.areas:
            values = np.array([solution.values.get(var, 0.0) for var in self.z[area.name]])
            chosen = int(values.argmax()) if values.size else -1
            selected = chosen >= 0 and bool(values[chosen] > 0.5)
            rect = self.candidates[area.name].rect(chosen) if selected else Rect(0, 0, 1, 1)
            floorplan.add_placement(
                RegionPlacement(
                    name=area.name,
                    rect=rect,
                    compatible_with=area.compatible_with,
                    satisfied=selected,
                )
            )
        return floorplan


def build_floorplan_milp(
    problem: FloorplanProblem,
    extra_areas: Sequence[AreaSpec] = (),
    fixed_relations: Mapping[Tuple[str, str], str] | None = None,
    model_name: str | None = None,
    prune: bool = True,
    incumbent: Floorplan | None = None,
    weights: ObjectiveWeights | None = None,
    candidates: Mapping[str, Candidates] | None = None,
) -> FloorplanMILP:
    """Build the candidate-rectangle MILP for a problem plus free areas.

    Parameters
    ----------
    problem:
        The floorplanning instance (device + regions + connectivity).
    extra_areas:
        Additional areas, typically the free-compatible areas requested by a
        :class:`~repro.relocation.spec.RelocationSpec`.
    fixed_relations:
        HO mode: mapping ``(a, b) -> relation`` (one of ``"left"``,
        ``"right"``, ``"below"``, ``"above"``) fixing the relative position of
        area ``a`` with respect to ``b``; these pairs get cut-line
        sequence-pair rows instead of cell-occupancy rows.
    model_name:
        Name for the underlying :class:`~repro.milp.model.Model`.
    prune:
        Drop candidates that cannot satisfy a fixed relation, and region
        candidates that cannot beat ``incumbent`` (both exact; see the module
        docstring).  ``False`` keeps every feasible rectangle a free area's
        signature allows.
    incumbent:
        A floorplan feasible for this model, typically the HO seed.  Ignored
        when it is not (a hard free area missing, a fixed relation broken).
    weights:
        Objective weights installed on the model and used by the filter.
    candidates:
        Every area's feasible rectangles as
        :func:`~repro.floorplan.candidates.enumerate_areas` lists them (the
        solver facade enumerates once for the seed and the model); enumerated
        here when omitted.  The mapping is not modified.
    """
    partition = problem.partition
    device = partition.device
    fixed_relations = dict(fixed_relations or {})
    weights = weights or ObjectiveWeights.paper_default()
    areas: List[AreaSpec] = [AreaSpec.for_region(region) for region in problem.regions]
    areas.extend(extra_areas)
    names = [area.name for area in areas]
    if len(set(names)) != len(names):
        raise ValueError("area names must be unique (regions + free-compatible areas)")
    region_names = set(problem.region_names)
    for area in areas:
        if area.is_free_area and area.compatible_with not in region_names:
            raise KeyError(
                f"free-compatible area {area.name!r} references unknown region "
                f"{area.compatible_with!r}"
            )

    if candidates is None:
        candidates = enumerate_areas(device, areas)
    candidates = {area.name: candidates[area.name] for area in areas}
    enumerated = sum(len(c) for c in candidates.values())
    norms = normalization_constants(problem)

    relations: List[Tuple[str, str, str]] = []
    unfixed: set = set()
    for i, first in enumerate(areas):
        for second in areas[i + 1 :]:
            relation = _relation(fixed_relations, first.name, second.name)
            if relation is None:
                unfixed.update((first.name, second.name))
            else:
                relations.append((first.name, second.name, relation))

    def settle() -> None:
        # the signature and relation filters feed each other: a region that
        # loses candidates may lose signatures its free areas need, and an
        # area that loses candidates narrows every relation it is in
        changed = True
        while changed:
            changed = _drop_unmatched_signatures(partition, areas, candidates)
            if prune:
                changed |= _drop_unrelatable(areas, candidates, relations)

    settle()
    related = sum(len(c) for c in candidates.values())
    filter_bound = None
    placed = None
    if prune and incumbent is not None:
        placed = _incumbent_rects(areas, incumbent, fixed_relations)
    if placed is not None:
        filter_bound = _waste_bound(areas, norms, incumbent, placed, weights)
    if filter_bound is not None:
        # the incumbent is feasible, so every region has a candidate
        waste = {n: candidates[n].frames - problem.required_frames(n) for n in region_names}
        floor = sum(int(w.min()) for w in waste.values())
        for name, w in waste.items():
            candidates[name] = candidates[name].subset(w - w.min() + floor <= filter_bound)
        settle()
    model = Model(model_name or f"floorplan[{problem.name}]")
    z: Dict[str, List[Variable]] = {}
    violation: Dict[str, Variable] = {}
    for area in areas:
        key = _sanitize(area.name)
        count = len(candidates[area.name])
        z[area.name] = [model.add_binary(f"z[{key},{i}]") for i in range(count)]
        if area.soft:
            violation[area.name] = model.add_binary(f"v[{key}]")
        if not area.is_free_area:
            model.add_eq_terms(dict.fromkeys(z[area.name], 1.0), 1.0, name=f"assign[{key}]")

    geometry = _Geometry(candidates, z, partition.height)
    for a, b, relation in relations:
        geometry.add_relation_rows(model, a, b, relation)
    geometry.add_cell_rows(model, [name for name in names if name in unfixed])

    regions = [n for n in names if n in region_names]
    wasted = LinExpr(
        geometry.terms(regions, lambda c: c.frames),
        -float(problem.total_required_frames()),
    )
    perimeter = LinExpr(geometry.terms(regions, lambda c: 2 * (c.w + c.h)))
    milp = FloorplanMILP(
        problem=problem,
        partition=partition,
        areas=tuple(areas),
        model=model,
        candidates=candidates,
        z=z,
        violation=violation,
        wasted_frames_expr=wasted,
        wirelength_expr=geometry.add_wirelength(model, problem),
        perimeter_expr=perimeter,
        norms=norms,
        enumerated=enumerated,
        related=related,
    )
    milp.set_objective(weights)
    if filter_bound is not None:
        milp.filter_weights, milp.filter_bound = weights, filter_bound
        milp.start = _start_values(milp, placed, geometry.distances)
    return milp


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _sanitize(name: str) -> str:
    return name.replace(" ", "_").replace(",", "_")


_MIRRORED = {
    sp.RELATION_LEFT: sp.RELATION_RIGHT,
    sp.RELATION_RIGHT: sp.RELATION_LEFT,
    sp.RELATION_BELOW: sp.RELATION_ABOVE,
    sp.RELATION_ABOVE: sp.RELATION_BELOW,
}


def _relation(fixed: Mapping[Tuple[str, str], str], a: str, b: str) -> Optional[str]:
    """Fixed relation of ``a`` with respect to ``b``, if any."""
    if (a, b) in fixed:
        return fixed[(a, b)]
    if (b, a) in fixed:
        return _MIRRORED[fixed[(b, a)]]
    return None


def _relation_holds(relation: str, a: Rect, b: Rect) -> bool:
    """Whether rectangle ``a`` stands in ``relation`` to rectangle ``b``."""
    if relation == sp.RELATION_LEFT:
        return a.col + a.width <= b.col
    if relation == sp.RELATION_RIGHT:
        return b.col + b.width <= a.col
    if relation == sp.RELATION_BELOW:
        return a.row + a.height <= b.row
    return b.row + b.height <= a.row


def _ordered(a: str, b: str, relation: str) -> Tuple[str, str, str, str]:
    """``(first, second, position, extent)``: ``first`` must end before ``second`` starts."""
    first, second = (a, b) if relation in (sp.RELATION_LEFT, sp.RELATION_BELOW) else (b, a)
    horizontal = relation in (sp.RELATION_LEFT, sp.RELATION_RIGHT)
    return (first, second) + (("x", "w") if horizontal else ("y", "h"))


def _drop_unmatched_signatures(
    partition: ColumnarPartition, areas: Sequence[AreaSpec], candidates: Dict[str, Candidates]
) -> bool:
    """Drop free-area candidates whose signature no candidate of the region has.

    A free area can only take a rectangle whose signature some candidate of
    its region shares (eqs. 6-10).  Returns whether anything was dropped.
    """
    changed = False
    for area in areas:
        if area.is_free_area:
            own = candidates[area.name]
            keep = np.isin(
                signature_keys(partition, own),
                signature_keys(partition, candidates[area.compatible_with]),
            )
            if not keep.all():
                candidates[area.name] = own.subset(keep)
                changed = True
    return changed


def _drop_unrelatable(
    areas: Sequence[AreaSpec],
    candidates: Dict[str, Candidates],
    relations: Sequence[Tuple[str, str, str]],
) -> bool:
    """Drop candidates that no candidate of a related area can stand beside.

    With ``first`` fixed before ``second`` on an axis, a ``first`` candidate
    ending after the largest start among ``second``'s candidates, or a
    ``second`` candidate starting before the smallest end among ``first``'s,
    breaks the relation whatever the other area selects.  The direction whose
    partner is a soft area is skipped: a violated soft area selects nothing,
    so it constrains no one.  Returns whether anything was dropped.
    """
    soft = {area.name for area in areas if area.soft}
    changed = False
    for a, b, relation in relations:
        first, second, pos, extent = _ordered(a, b, relation)
        before, after = candidates[first], candidates[second]
        if not len(before) or not len(after):
            continue
        if second not in soft:
            keep = getattr(before, pos) + getattr(before, extent) <= getattr(after, pos).max()
            if not keep.all():
                before = candidates[first] = before.subset(keep)
                changed = True
        if first not in soft and len(before):
            keep = getattr(after, pos) >= (getattr(before, pos) + getattr(before, extent)).min()
            if not keep.all():
                candidates[second] = after.subset(keep)
                changed = True
    return changed


class _Geometry:
    """Writes the rows that couple candidates of different areas.

    ``distances`` pairs each wirelength distance variable with the centre
    difference it bounds from above, ``centre_0 - centre_1`` over ``z``.
    """

    def __init__(
        self, candidates: Dict[str, Candidates], z: Dict[str, List[Variable]], height: int
    ) -> None:
        self.candidates = candidates
        self.z = z
        self.height = height
        self.distances: List[Tuple[Variable, LinExpr]] = []

    def terms(self, names: Sequence[str], coefficient) -> Dict[Variable, float]:
        """``{z: coefficient(candidates)}`` over the candidates of ``names``."""
        terms: Dict[Variable, float] = {}
        for name in names:
            terms.update(zip(self.z[name], coefficient(self.candidates[name]).tolist()))
        return terms

    def add_relation_rows(self, model: Model, a: str, b: str, relation: str) -> None:
        """Sequence-pair rows of one fixed relation, one clique per cut line.

        ``first`` must end before ``second`` starts.  Two of their candidates
        clash exactly when some cut line ``t`` has ``start(second) <= t <
        end(first)``, so for every cut line ``t``
        ``sum_{end_i > t} z[first,i] + sum_{start_j <= t} z[second,j] <= 1``
        admits the same integer points as the aggregated big-coefficient row
        ``sum (x+w) z[first] <= sum x z[second]``, with a far tighter LP
        relaxation.  A line between two consecutive starts of ``second`` has
        the ``second`` side of the line at the lower start and a smaller
        ``first`` side, so the lines at the distinct starts below the last
        end of ``first`` give every row that is not dominated.  A violated
        soft area has all its ``z`` at 0, so its side reads 0 and no
        violation term is needed.
        """
        first, second, pos, extent = _ordered(a, b, relation)
        before, after = self.candidates[first], self.candidates[second]
        if not len(before) or not len(after):
            return
        ends = getattr(before, pos) + getattr(before, extent)
        starts = getattr(after, pos)
        # order both sides so each row is a prefix of each: ends descending,
        # starts ascending
        end_order = np.argsort(-ends, kind="stable")
        start_order = np.argsort(starts, kind="stable")
        z_first = [self.z[first][i] for i in end_order.tolist()]
        z_second = [self.z[second][j] for j in start_order.tolist()]
        lines = np.unique(starts[starts < ends.max()])
        ending_after = np.searchsorted(-ends[end_order], -lines, side="left")
        started = np.searchsorted(starts[start_order], lines, side="right")
        label = f"sp_{relation}[{_sanitize(a)}|{_sanitize(b)}"
        for t, k_first, k_second in zip(lines.tolist(), ending_after.tolist(), started.tolist()):
            model.add_le_terms(
                dict.fromkeys(z_first[:k_first] + z_second[:k_second], 1.0),
                1.0,
                name=f"{label},{t}]",
            )

    def add_cell_rows(self, model: Model, names: Sequence[str]) -> None:
        """``sum z <= 1`` per device cell over the candidates covering it."""
        if len(names) < 2:
            return
        cells, owners, areas = [], [], []
        flat: List[Variable] = []
        for area_index, name in enumerate(names):
            cand = self.candidates[name]
            shapes = np.unique(np.stack([cand.w, cand.h], axis=1), axis=0)
            for w, h in shapes.tolist():
                idx = np.flatnonzero((cand.w == w) & (cand.h == h))
                dx, dy = np.meshgrid(np.arange(w), np.arange(h), indexing="ij")
                covered = (cand.x[idx, None] + dx.ravel()) * self.height + (
                    cand.y[idx, None] + dy.ravel()
                )
                cells.append(covered.ravel())
                owners.append(np.repeat(idx + len(flat), w * h))
                areas.append(np.full(covered.size, area_index))
            flat.extend(self.z[name])
        if not cells:
            return
        cell = np.concatenate(cells)
        order = np.argsort(cell, kind="stable")
        cell, owner, area = cell[order], np.concatenate(owners)[order], np.concatenate(areas)[order]
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        ends = np.r_[starts[1:], cell.size]
        for start, end in zip(starts.tolist(), ends.tolist()):
            # cells reachable by a single area are already covered by its
            # assignment row
            if area[start] == area[end - 1]:
                continue
            col, row = divmod(int(cell[start]), self.height)
            model.add_le_terms(
                dict.fromkeys([flat[i] for i in owner[start:end].tolist()], 1.0),
                1.0,
                name=f"cell[{col},{row}]",
            )

    def add_wirelength(self, model: Model, problem: FloorplanProblem) -> LinExpr:
        """Weighted Manhattan distance between connected endpoint centres."""
        total = LinExpr()
        for idx, connection in enumerate(problem.connections):
            for axis, pos, extent in (("dx", "x", "w"), ("dy", "y", "h")):
                distance = model.add_continuous(f"wl_{axis}[{idx}]", lb=0.0)
                (t0, c0), (t1, c1) = (
                    self._centre(problem, endpoint, pos, extent)
                    for endpoint in connection.endpoints()
                )
                difference = dict(t0)
                for var, coef in t1.items():
                    difference[var] = difference.get(var, 0.0) - coef
                self.distances.append((distance, LinExpr(difference, c0 - c1)))
                for sign, suffix in ((1.0, "p"), (-1.0, "n")):
                    # distance >= sign * (centre_0 - centre_1)
                    terms = {var: -sign * coef for var, coef in difference.items()}
                    terms[distance] = 1.0
                    model.add_ge_terms(
                        terms, sign * (c0 - c1), name=f"wl_{axis}_{suffix}[{idx}]"
                    )
                total = total + connection.weight * distance
        return total

    def _centre(
        self, problem: FloorplanProblem, endpoint: str, pos: str, extent: str
    ) -> Tuple[Dict[Variable, float], float]:
        """Centre coordinate of an endpoint as ``(terms over z, constant)``."""
        if endpoint in self.candidates:
            return self.terms(
                [endpoint], lambda c: getattr(c, pos) + 0.5 * getattr(c, extent)
            ), 0.0
        pin = problem.pin_by_name(endpoint)
        return {}, (pin.col if pos == "x" else pin.row) + 0.5


def _incumbent_rects(
    areas: Sequence[AreaSpec],
    incumbent: Floorplan,
    fixed_relations: Mapping[Tuple[str, str], str],
) -> Optional[Dict[str, Optional[Rect]]]:
    """Each area's rectangle in ``incumbent`` (``None`` for a soft area it left out).

    ``None`` when the incumbent is not a feasible point of the model: it does
    not verify, leaves out a hard area or breaks a fixed relation.
    """
    from repro.floorplan.verify import verify_floorplan

    if not verify_floorplan(incumbent).is_feasible:
        return None
    placed: Dict[str, Optional[Rect]] = {}
    for area in areas:
        placement = (
            incumbent.free_areas.get(area.name)
            if area.is_free_area
            else incumbent.placements.get(area.name)
        )
        if (
            placement is not None
            and placement.satisfied
            and placement.compatible_with == area.compatible_with
        ):
            placed[area.name] = placement.rect
        elif area.soft:
            placed[area.name] = None
        else:
            return None
    for (a, b), relation in fixed_relations.items():
        first, second = placed.get(a), placed.get(b)
        if first is not None and second is not None and not _relation_holds(
            relation, first, second
        ):
            return None
    return placed


def _waste_bound(
    areas: Sequence[AreaSpec],
    norms: Dict[str, float],
    incumbent: Floorplan,
    placed: Mapping[str, Optional[Rect]],
    weights: ObjectiveWeights,
) -> Optional[int]:
    """Most wasted frames a solution may have and still match the incumbent.

    ``placed`` is the incumbent's :func:`_incumbent_rects`.  The incumbent's
    eq.-14 objective under ``weights`` is an upper bound on the optimum, and
    every other term of eq. 14 is non-negative, so a solution whose wasted
    frames exceed the returned bound is worse than the incumbent.  ``None``
    when wasted frames carry no weight.
    """
    if weights.wasted_frames <= 0:
        return None
    missed_weight = sum(area.weight for area in areas if placed[area.name] is None)
    soft_total = max(sum(area.weight for area in areas if area.soft), 1.0)
    objective = (
        weights.wirelength * wirelength(incumbent) / norms["wirelength"]
        + weights.perimeter * total_perimeter(incumbent) / norms["perimeter"]
        + weights.wasted_frames * wasted_frames(incumbent) / norms["wasted_frames"]
        + weights.relocation * missed_weight / soft_total
    )
    return math.floor(objective * norms["wasted_frames"] / weights.wasted_frames + 1e-6)


def _start_values(
    milp: FloorplanMILP,
    placed: Mapping[str, Optional[Rect]],
    distances: Sequence[Tuple[Variable, LinExpr]],
) -> Optional[Dict[Variable, float]]:
    """The incumbent ``placed`` as a complete assignment of the model's variables.

    Each placed area selects the candidate with its rectangle's
    ``(x, y, w, h)``; a soft area left out gets ``v = 1``; each wirelength
    distance takes the absolute centre difference it bounds.  ``None`` if a
    rectangle is not among its area's candidates.
    """
    values: Dict[Variable, float] = {}
    for area in milp.areas:
        z = milp.z[area.name]
        values.update(dict.fromkeys(z, 0.0))
        rect = placed[area.name]
        if area.soft:
            values[milp.violation[area.name]] = float(rect is None)
        if rect is None:
            continue
        cand = milp.candidates[area.name]
        hit = np.flatnonzero(
            (cand.x == rect.col) & (cand.y == rect.row)
            & (cand.w == rect.width) & (cand.h == rect.height)
        )
        if not hit.size:
            return None
        values[z[int(hit[0])]] = 1.0
    for distance, difference in distances:
        values[distance] = abs(difference.evaluate(values))
    return values
