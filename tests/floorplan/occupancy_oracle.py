"""Occupancy-grid MILP: the differential oracle of the candidate-rectangle model.

This is the formulation :mod:`repro.floorplan.milp_builder` used before it
switched to enumerated candidate rectangles, kept here (without the
placement-mask pruning) so tests can check the production model against an
independent encoding of the same problem:

* column/row coverage binaries ``u[n,j]``/``a[n,r]`` forced into one
  contiguous run by start binaries;
* ``k[n,p]`` (area n intersects portion p) and ``l[n,p,r]`` (tiles of portion
  p covered on row r, the McCormick product ``a[n,r] * sum_{j in p} u[n,j]``);
* pairwise non-overlap through the 4-way big-M disjunction, or the fixed
  relation of an HO sequence pair;
* the relocation constraints of eqs. 4-12 over ``o[n,p]``, ``k`` and ``l``.

Soft (relocation-as-a-metric) areas relax their non-overlap and
compatibility rows with the violation binary ``v[c]``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.floorplan import sequence_pair as sp
from repro.floorplan.geometry import Rect
from repro.floorplan.metrics import ObjectiveWeights, normalization_constants
from repro.floorplan.milp_builder import AreaSpec
from repro.floorplan.placement import Floorplan, RegionPlacement
from repro.floorplan.problem import FloorplanProblem
from repro.milp import LinExpr, Model, Variable, quicksum
from repro.milp.solution import MILPSolution

_MIRRORED = {
    sp.RELATION_LEFT: sp.RELATION_RIGHT,
    sp.RELATION_RIGHT: sp.RELATION_LEFT,
    sp.RELATION_BELOW: sp.RELATION_ABOVE,
    sp.RELATION_ABOVE: sp.RELATION_BELOW,
}


class OccupancyMILP:
    """The occupancy-grid model of one problem plus optional free areas."""

    def __init__(
        self,
        problem: FloorplanProblem,
        extra_areas: Sequence[AreaSpec] = (),
        fixed_relations: Mapping[Tuple[str, str], str] | None = None,
    ) -> None:
        self.problem = problem
        self.partition = partition = problem.partition
        self.model = model = Model(f"occupancy[{problem.name}]")
        width, height = partition.width, partition.height
        self.areas: List[AreaSpec] = [
            AreaSpec(r.name, r.requirements, max_width=r.max_width, max_height=r.max_height)
            for r in problem.regions
        ] + list(extra_areas)
        self.col_cover: Dict[str, List[Variable]] = {}
        self.row_cover: Dict[str, List[Variable]] = {}
        self.k: Dict[str, List[Variable]] = {}
        self.tiles: Dict[str, List[LinExpr]] = {}
        self.violation: Dict[str, Variable] = {}
        x_expr: Dict[str, LinExpr] = {}
        y_expr: Dict[str, LinExpr] = {}
        self.w_expr: Dict[str, LinExpr] = {}
        self.h_expr: Dict[str, LinExpr] = {}
        frames: Dict[str, LinExpr] = {}

        for area in self.areas:
            name = area.name
            u = [model.add_binary(f"u[{name},{j}]") for j in range(width)]
            us = [model.add_binary(f"us[{name},{j}]") for j in range(width)]
            a = [model.add_binary(f"a[{name},{r}]") for r in range(height)]
            a_s = [model.add_binary(f"as[{name},{r}]") for r in range(height)]
            _contiguous(model, u, us, f"col[{name}]")
            _contiguous(model, a, a_s, f"row[{name}]")
            self.col_cover[name], self.row_cover[name] = u, a
            self.w_expr[name] = quicksum(u)
            self.h_expr[name] = quicksum(a)
            x_expr[name] = quicksum(j * s for j, s in enumerate(us))
            y_expr[name] = quicksum(r * s for r, s in enumerate(a_s))
            if area.max_width is not None:
                model.add(self.w_expr[name] <= area.max_width)
            if area.max_height is not None:
                model.add(self.h_expr[name] <= area.max_height)

            self.k[name], self.tiles[name] = [], []
            for portion in partition.portions:
                cols = [u[j] for j in portion.columns()]
                k = model.add_binary(f"k[{name},{portion.index}]")
                for var in cols:
                    model.add(k >= var)
                model.add(k <= quicksum(cols))
                self.k[name].append(k)
                pw = float(portion.width)
                rows = []
                for r in range(height):
                    l = model.add_continuous(f"l[{name},{portion.index},{r}]", ub=pw)
                    model.add(l <= quicksum(cols))
                    model.add(l <= pw * a[r])
                    model.add(l >= quicksum(cols) + pw * a[r] - pw)
                    rows.append(l)
                self.tiles[name].append(quicksum(rows))
            frames[name] = quicksum(
                p.tile_type.frames * self.tiles[name][p.index] for p in partition.portions
            )
            for fcol, frow in partition.forbidden_cells():
                model.add(u[fcol] + a[frow] <= 1)
            if not area.is_free_area:
                for rtype, required in area.requirements:
                    if required > 0:
                        supply = quicksum(
                            p.tile_type.resources.get(rtype) * self.tiles[name][p.index]
                            for p in partition.portions
                        )
                        model.add(supply >= required)
            if area.soft:
                self.violation[name] = model.add_binary(f"v[{name}]")

        fixed = dict(fixed_relations or {})
        for i, first in enumerate(self.areas):
            for second in self.areas[i + 1 :]:
                a, b = first.name, second.name
                slack = LinExpr()
                for name in (a, b):
                    if name in self.violation:
                        slack = slack + self.violation[name]
                relation = fixed.get((a, b))
                if relation is None and (b, a) in fixed:
                    relation = _MIRRORED[fixed[(b, a)]]
                sep = {
                    sp.RELATION_LEFT: x_expr[a] + self.w_expr[a] - x_expr[b] - width * slack,
                    sp.RELATION_RIGHT: x_expr[b] + self.w_expr[b] - x_expr[a] - width * slack,
                    sp.RELATION_BELOW: y_expr[a] + self.h_expr[a] - y_expr[b] - height * slack,
                    sp.RELATION_ABOVE: y_expr[b] + self.h_expr[b] - y_expr[a] - height * slack,
                }
                if relation is not None:
                    model.add(sep[relation] <= 0)
                    continue
                dirs = {rel: model.add_binary(f"d_{rel}[{a}|{b}]") for rel in sep}
                model.add(quicksum(dirs.values()) >= 1)
                for rel, expr in sep.items():
                    big_m = width if rel in (sp.RELATION_LEFT, sp.RELATION_RIGHT) else height
                    model.add(expr <= big_m * (1 - dirs[rel]))

        region_names = set(problem.region_names)
        self.wasted_frames_expr = quicksum(
            frames[a.name] for a in self.areas if a.name in region_names
        ) - float(problem.total_required_frames())
        self.perimeter_expr = quicksum(
            2.0 * (self.w_expr[n] + self.h_expr[n]) for n in problem.region_names
        )
        wirelength = []
        for idx, connection in enumerate(problem.connections):
            cx, cy = [], []
            for endpoint in connection.endpoints():
                if endpoint in x_expr:
                    cx.append(x_expr[endpoint] + 0.5 * self.w_expr[endpoint])
                    cy.append(y_expr[endpoint] + 0.5 * self.h_expr[endpoint])
                else:
                    pin = problem.pin_by_name(endpoint)
                    cx.append(LinExpr.from_const(pin.col + 0.5))
                    cy.append(LinExpr.from_const(pin.row + 0.5))
            dx = model.add_continuous(f"wl_dx[{idx}]")
            dy = model.add_continuous(f"wl_dy[{idx}]")
            model.add(dx >= cx[0] - cx[1])
            model.add(dx >= cx[1] - cx[0])
            model.add(dy >= cy[0] - cy[1])
            model.add(dy >= cy[1] - cy[0])
            wirelength.append(connection.weight * (dx + dy))
        self.wirelength_expr = quicksum(wirelength) if wirelength else LinExpr()
        self.norms = normalization_constants(problem)
        self.set_objective()

    def set_objective(self, weights: ObjectiveWeights | None = None) -> None:
        """Install the normalized weighted objective of eq. 14."""
        weights = weights or ObjectiveWeights.paper_default()
        objective = (
            weights.wirelength / self.norms["wirelength"] * self.wirelength_expr
            + weights.perimeter / self.norms["perimeter"] * self.perimeter_expr
            + weights.wasted_frames / self.norms["wasted_frames"] * self.wasted_frames_expr
        )
        soft = [a for a in self.areas if a.soft]
        if weights.relocation > 0 and soft:
            rl_max = max(sum(a.weight for a in soft), 1.0)
            objective = objective + weights.relocation / rl_max * quicksum(
                a.weight * self.violation[a.name] for a in soft
            )
        self.model.minimize(objective)

    def extract(self, solution: MILPSolution) -> Floorplan:
        """Turn a solution into a floorplan (violated soft areas unsatisfied)."""
        floorplan = Floorplan(self.problem, objective=solution.objective)
        if not solution.status.has_solution:
            return floorplan
        for area in self.areas:
            name = area.name
            cols = [j for j, v in enumerate(self.col_cover[name]) if solution.value(v) > 0.5]
            rows = [r for r, v in enumerate(self.row_cover[name]) if solution.value(v) > 0.5]
            satisfied = not (name in self.violation and solution.value(self.violation[name]) > 0.5)
            floorplan.add_placement(
                RegionPlacement(
                    name=name,
                    rect=Rect(min(cols), min(rows), len(cols), len(rows)),
                    compatible_with=area.compatible_with,
                    satisfied=satisfied,
                )
            )
        return floorplan


def apply_occupancy_relocation(milp: OccupancyMILP) -> None:
    """Eqs. 4-12: offsets, equal heights/portion counts, types and tile counts."""
    model, partition = milp.model, milp.partition
    num_portions = partition.num_portions
    type_ids = partition.portion_type_ids()
    big_m = float(partition.width * partition.height)
    pairs = [(a.name, a.compatible_with) for a in milp.areas if a.is_free_area]
    offset: Dict[str, List[Variable]] = {}
    for name in sorted({n for pair in pairs for n in pair}):
        k = milp.k[name]
        o = [model.add_continuous(f"o[{name},{p}]", ub=1.0) for p in range(num_portions)]
        model.add(quicksum(o) == 1)  # eq. 4
        model.add(o[0] == k[0])  # eq. 5
        for p in range(1, num_portions):
            model.add(o[p] >= k[p] - k[p - 1])
        offset[name] = o

    for free, region in pairs:
        v = milp.violation.get(free)
        slack = LinExpr() if v is None else 1.0 * v
        for left, right, m in (
            (milp.h_expr[free], milp.h_expr[region], float(partition.height)),  # eq. 6
            (quicksum(milp.k[free]), quicksum(milp.k[region]), float(num_portions)),  # eq. 7
        ):
            model.add(left <= right + m * slack)
            model.add(left >= right - m * slack)
        o_c, o_n, k_n = offset[free], offset[region], milp.k[region]
        for pc in range(num_portions):
            for pn in range(num_portions):
                for i in range(-num_portions + 1, num_portions):
                    ci, ni = pc + i, pn + i
                    if not (0 <= ci < num_portions and 0 <= ni < num_portions):
                        continue
                    if type_ids[ci] != type_ids[ni]:  # eq. 10 / 12
                        model.add(o_c[pc] + o_n[pn] + k_n[ni] <= 2 + slack)
                        continue
                    activation = 3 - o_c[pc] - o_n[pn] - k_n[ni] + slack
                    tiles_c, tiles_n = milp.tiles[free][ci], milp.tiles[region][ni]
                    model.add(tiles_c <= tiles_n + big_m * activation)  # eq. 9 / 11
                    model.add(tiles_c >= tiles_n - big_m * activation)


def _contiguous(model: Model, cover: List[Variable], start: List[Variable], label: str) -> None:
    """Force the covered indices into exactly one non-empty contiguous run."""
    model.add(quicksum(start) == 1, name=f"{label}:one_start")
    for idx, (c, s) in enumerate(zip(cover, start)):
        model.add(c >= s)
        if idx == 0:
            model.add(c <= s)
        else:
            model.add(c <= cover[idx - 1] + s)
            model.add(cover[idx - 1] + s <= 1)
