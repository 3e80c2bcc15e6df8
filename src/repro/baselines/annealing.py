"""Simulated-annealing floorplanner (reference [9]).

Bolchini, Miele and Sandionigi's resource-aware floorplanner explores
placements with simulated annealing, primarily minimizing wirelength while
keeping resource feasibility.  This module provides an equivalent baseline:

* the state is one rectangle per region;
* moves translate, resize or re-anchor a randomly chosen region;
* the cost blends hard-constraint penalties (overlaps, forbidden cells,
  resource deficits) with wasted frames and weighted wirelength, so the
  annealer first repairs feasibility and then polishes quality.

The annealer never uses wall-clock time or global randomness — everything is
driven by an explicit ``numpy`` generator seed, so runs are reproducible.

Cost evaluation is *incremental*: a neighbour move changes one region's
rectangle, so only that region's forbidden/deficit/wasted components, its
overlap terms and the wirelength of the connections touching it are
recomputed (:class:`_IncrementalCostEvaluator`).  The full recompute that
specifies the cost lives with the test oracles
(``tests/baselines/annealing_oracle.py``); the equivalence tests run the
annealer on it and check that the incremental path reproduces its costs
bit-for-bit (integer components are exact; the wirelength sum is
re-accumulated in connection order), so both evaluators drive the annealer
through identical accept/reject trajectories.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.packing import first_rect, region_anchors, sort_regions_by_demand
from repro.floorplan.geometry import Rect, manhattan
from repro.floorplan.placement import Floorplan, RegionPlacement, rect_frames, rect_resources
from repro.floorplan.problem import FloorplanProblem, Region


@dataclasses.dataclass
class AnnealingOptions:
    """Tuning knobs of the simulated-annealing baseline."""

    iterations: int = 20_000
    initial_temperature: float = 50.0
    cooling: float = 0.999
    seed: int = 0
    overlap_penalty: float = 500.0
    deficit_penalty: float = 500.0
    forbidden_penalty: float = 500.0
    wasted_frame_weight: float = 1.0
    wirelength_weight: float = 0.2


def annealing_floorplan(
    problem: FloorplanProblem,
    options: AnnealingOptions | None = None,
) -> Optional[Floorplan]:
    """Anneal a placement for every region of ``problem``.

    Returns ``None`` only when even the initial construction fails; otherwise
    the best feasible state seen is returned (or the best infeasible state,
    flagged through ``solver_status``, when feasibility was never reached).
    """
    options = options or AnnealingOptions()
    start = time.perf_counter()
    rng = np.random.default_rng(options.seed)
    device = problem.device
    regions = list(problem.regions)

    state = _initial_state(problem, rng)
    if state is None:
        return None

    evaluator = _IncrementalCostEvaluator(problem, options)
    current_cost = evaluator.reset(state)
    best_state = dict(state)
    best_cost = current_cost
    best_feasible: Optional[Dict[str, Rect]] = None
    best_feasible_cost = math.inf
    if evaluator.feasible(state):
        best_feasible, best_feasible_cost = dict(state), current_cost

    temperature = options.initial_temperature
    region_names = [region.name for region in regions]

    for _ in range(options.iterations):
        name = region_names[int(rng.integers(len(region_names)))]
        candidate_rect = _propose(state[name], device.width, device.height, rng)
        if candidate_rect is None:
            continue
        old_rect = state[name]
        state[name] = candidate_rect
        candidate_cost = evaluator.propose(name, candidate_rect, state)
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            evaluator.commit()
            current_cost = candidate_cost
            if candidate_cost < best_cost:
                best_cost = candidate_cost
                best_state = dict(state)
            if candidate_cost < best_feasible_cost and evaluator.feasible(state):
                best_feasible_cost = candidate_cost
                best_feasible = dict(state)
        else:
            evaluator.reject()
            state[name] = old_rect
        temperature *= options.cooling

    chosen = best_feasible if best_feasible is not None else best_state
    status = "annealing" if best_feasible is not None else "annealing-infeasible"
    floorplan = Floorplan(problem=problem, solver_status=status)
    for name, rect in chosen.items():
        floorplan.placements[name] = RegionPlacement(name=name, rect=rect)
    floorplan.solve_time = time.perf_counter() - start
    floorplan.metadata["iterations"] = options.iterations
    floorplan.metadata["final_cost"] = best_feasible_cost if best_feasible else best_cost
    return floorplan


# ----------------------------------------------------------------------
def _initial_state(problem: FloorplanProblem, rng: np.random.Generator) -> Optional[Dict[str, Rect]]:
    """Greedy construction, falling back to random rectangles when stuck."""
    device = problem.device
    anchors = region_anchors(device, problem.regions)
    occupied: List[Rect] = []
    state: Dict[str, Rect] = {}
    for region in sort_regions_by_demand(problem.regions):
        rect = first_rect(anchors[region.name], occupied)
        if rect is None:
            # random rectangle roughly sized for the demand; the annealer will repair it
            height = int(rng.integers(1, device.height + 1))
            width = max(1, math.ceil(region.total_tiles / height))
            width = min(width, device.width)
            col = int(rng.integers(0, device.width - width + 1))
            row = int(rng.integers(0, device.height - height + 1))
            rect = Rect(col, row, width, height)
        occupied.append(rect)
        state[region.name] = rect
    return state


def _propose(
    rect: Rect, device_width: int, device_height: int, rng: np.random.Generator
) -> Optional[Rect]:
    """Random neighbourhood move: translate, resize or re-anchor."""
    move = rng.integers(3)
    if move == 0:  # translate
        dcol = int(rng.integers(-2, 3))
        drow = int(rng.integers(-2, 3))
        candidate = Rect(rect.col + dcol, rect.row + drow, rect.width, rect.height)
    elif move == 1:  # resize (keep the anchor)
        dw = int(rng.integers(-1, 2))
        dh = int(rng.integers(-1, 2))
        candidate = Rect(rect.col, rect.row, max(1, rect.width + dw), max(1, rect.height + dh))
    else:  # re-anchor anywhere with the same shape
        col = int(rng.integers(0, max(1, device_width - rect.width + 1)))
        row = int(rng.integers(0, max(1, device_height - rect.height + 1)))
        candidate = Rect(col, row, rect.width, rect.height)
    if not candidate.within(device_width, device_height):
        return None
    return candidate


class _IncrementalCostEvaluator:
    """Delta-cost evaluation: only re-measure what a single move changed.

    Cached per region: the forbidden-cell count, resource deficit and wasted
    frames of its current rectangle (pure functions of the rectangle, memoized
    per ``(name, rect)``), plus its ``within``-bounds flag.  Cached globally:
    the total pairwise overlap (exact integer, updated with the O(n) terms
    involving the moved region) and the per-connection wirelengths.

    Bit-for-bit equivalence with the full-recompute reference of the test
    oracles (``tests/baselines/annealing_oracle.py``): all penalty
    components are integers (exact under any update order) and the wirelength
    is re-accumulated over the per-connection values in connection order —
    the same additions, in the same order, as the reference loop.
    """

    def __init__(self, problem: FloorplanProblem, options: AnnealingOptions) -> None:
        self.problem = problem
        self.options = options
        self.device = problem.device
        self.regions: Dict[str, Region] = {r.name: r for r in problem.regions}
        self.required_frames = {
            r.name: problem.required_frames(r) for r in problem.regions
        }
        # connections touching each region, as indices into problem.connections
        self._conn_indices: Dict[str, List[int]] = {name: [] for name in self.regions}
        for index, connection in enumerate(problem.connections):
            for endpoint in connection.endpoints():
                if endpoint in self._conn_indices:
                    self._conn_indices[endpoint].append(index)
        self._component_memo: Dict[Tuple[str, Rect], Tuple[int, int, int, bool]] = {}
        # mutable run state (filled by reset)
        self._names: List[str] = []
        self._rects: Dict[str, Rect] = {}
        self._components: Dict[str, Tuple[int, int, int, bool]] = {}
        self._overlap_total = 0
        self._conn_lengths: List[float] = []
        self._pending: Optional[Tuple[str, Rect, Tuple[int, int, int, bool], int, Dict[int, float]]] = None

    # ------------------------------------------------------------------
    def _region_components(self, name: str, rect: Rect) -> Tuple[int, int, int, bool]:
        """(forbidden, deficit, wasted, within) of one region's rectangle."""
        key = (name, rect)
        cached = self._component_memo.get(key)
        if cached is None:
            region = self.regions[name]
            within = rect.within(self.device.width, self.device.height)
            forbidden = self.device.forbidden_cell_count(
                rect.col, rect.row, rect.width, rect.height
            )
            covered = rect_resources(self.device, rect)
            deficit = covered.deficit(region.requirements).total
            wasted = max(
                0, rect_frames(self.device, rect) - self.required_frames[name]
            )
            cached = (forbidden, deficit, wasted, within)
            self._component_memo[key] = cached
        return cached

    def _connection_length(self, index: int) -> float:
        connection = self.problem.connections[index]
        centers = []
        for endpoint in connection.endpoints():
            if endpoint in self._rects:
                centers.append(self._rects[endpoint].center)
            else:
                centers.append(self.problem.pin_by_name(endpoint).center)
        return connection.weight * manhattan(centers[0], centers[1])

    def _total_cost(self, wirelength: float, forbidden: int, deficit: int, wasted: int) -> float:
        options = self.options
        return (
            options.overlap_penalty * self._overlap_total
            + options.forbidden_penalty * forbidden
            + options.deficit_penalty * deficit
            + options.wasted_frame_weight * wasted
            + options.wirelength_weight * wirelength
        )

    def _summed_components(self) -> Tuple[int, int, int]:
        forbidden = deficit = wasted = 0
        for name in self._names:
            f, d, w, _ = self._components[name]
            forbidden += f
            deficit += d
            wasted += w
        return forbidden, deficit, wasted

    # ------------------------------------------------------------------
    def reset(self, state: Dict[str, Rect]) -> float:
        """Full evaluation; establishes the caches for later deltas."""
        self._pending = None
        self._names = list(state.keys())
        self._rects = dict(state)
        self._components = {
            name: self._region_components(name, rect) for name, rect in state.items()
        }
        self._overlap_total = 0
        rect_list = list(state.values())
        for i, first in enumerate(rect_list):
            for second in rect_list[i + 1 :]:
                self._overlap_total += first.intersection_area(second)
        self._conn_lengths = [
            self._connection_length(index)
            for index in range(len(self.problem.connections))
        ]
        wirelength = 0.0
        for length in self._conn_lengths:
            wirelength += length
        forbidden, deficit, wasted = self._summed_components()
        return self._total_cost(wirelength, forbidden, deficit, wasted)

    def propose(self, name: str, new_rect: Rect, state: Dict[str, Rect]) -> float:
        """Cost of the state with ``name`` moved to ``new_rect`` (uncommitted)."""
        old_rect = self._rects[name]
        overlap_delta = 0
        for other_name in self._names:
            if other_name == name:
                continue
            other = self._rects[other_name]
            overlap_delta += new_rect.intersection_area(other)
            overlap_delta -= old_rect.intersection_area(other)

        new_components = self._region_components(name, new_rect)

        changed_lengths: Dict[int, float] = {}
        if self._conn_indices.get(name):
            # evaluate affected connections against the candidate rectangle
            self._rects[name] = new_rect
            try:
                for index in self._conn_indices[name]:
                    changed_lengths[index] = self._connection_length(index)
            finally:
                self._rects[name] = old_rect

        wirelength = 0.0
        for index, length in enumerate(self._conn_lengths):
            wirelength += changed_lengths.get(index, length)

        self._overlap_total += overlap_delta
        old_components = self._components[name]
        forbidden, deficit, wasted = self._summed_components()
        forbidden += new_components[0] - old_components[0]
        deficit += new_components[1] - old_components[1]
        wasted += new_components[2] - old_components[2]
        cost = self._total_cost(wirelength, forbidden, deficit, wasted)
        self._overlap_total -= overlap_delta

        self._pending = (name, new_rect, new_components, overlap_delta, changed_lengths)
        return cost

    def commit(self) -> None:
        """Adopt the last proposed move into the caches."""
        if self._pending is None:
            raise RuntimeError("commit() without a pending propose()")
        name, new_rect, components, overlap_delta, changed_lengths = self._pending
        self._rects[name] = new_rect
        self._components[name] = components
        self._overlap_total += overlap_delta
        for index, length in changed_lengths.items():
            self._conn_lengths[index] = length
        self._pending = None

    def reject(self) -> None:
        """Discard the last proposed move."""
        self._pending = None

    def feasible(self, state: Dict[str, Rect]) -> bool:
        """Feasibility from the cached components (post-commit state).

        Equivalent to the full-recompute reference's check: zero overlap, every
        rectangle within bounds and off forbidden cells, zero resource
        deficit.
        """
        if self._overlap_total != 0:
            return False
        for name in self._names:
            forbidden, deficit, _, within = self._components[name]
            if not within or forbidden != 0 or deficit != 0:
                return False
        return True
