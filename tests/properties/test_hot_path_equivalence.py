"""Property tests: the optimized hot paths are behaviour-identical.

Two families of checks:

* the rewritten :mod:`repro.floorplan.sequence_pair` (memoized match
  positions, networkx-free extraction, LIS packing) against a literal
  re-implementation of the pre-optimization algorithms (naive per-call
  position rebuilds; ``networkx``-based graph extraction);
* the incremental annealing evaluator against the full-re-evaluation
  reference of ``tests/baselines/annealing_oracle.py``: same seeds must
  produce *identical* placements, because the delta costs are exact.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.baselines import annealing
from repro.baselines.annealing import (
    AnnealingOptions,
    _IncrementalCostEvaluator,
    annealing_floorplan,
)
from repro.bench.scenarios import (
    random_placement,
    random_rect_state,
    scaling_problem,
    small_problem,
)
from repro.floorplan.sequence_pair import (
    _RELATION_EDGES,
    SequencePair,
    _horizontal_relation,
    _vertical_relation,
)
from tests.baselines.annealing_oracle import CostEvaluator

SEEDS = range(8)


# ----------------------------------------------------------------------
# reference implementation of the pre-optimization extraction (networkx)
# ----------------------------------------------------------------------
def _reference_from_rects(rects):
    names = sorted(rects)
    forced, flexible = [], []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            ra, rb = rects[a], rects[b]
            horizontal = _horizontal_relation(ra, rb)
            vertical = _vertical_relation(ra, rb)
            if horizontal is None and vertical is None:
                raise ValueError("overlap")
            if horizontal is not None and vertical is not None:
                flexible.append((a, b, (horizontal, vertical)))
            else:
                forced.append((a, b, horizontal or vertical))

    graph_plus, graph_minus = nx.DiGraph(), nx.DiGraph()
    graph_plus.add_nodes_from(names)
    graph_minus.add_nodes_from(names)

    def add(a, b, relation):
        forward_plus, forward_minus = _RELATION_EDGES[relation]
        graph_plus.add_edge(a, b) if forward_plus else graph_plus.add_edge(b, a)
        graph_minus.add_edge(a, b) if forward_minus else graph_minus.add_edge(b, a)

    for a, b, relation in forced:
        add(a, b, relation)
    assert nx.is_directed_acyclic_graph(graph_plus)
    assert nx.is_directed_acyclic_graph(graph_minus)
    for a, b, candidates in flexible:
        for relation in candidates:
            forward_plus, forward_minus = _RELATION_EDGES[relation]
            plus_src, plus_dst = (a, b) if forward_plus else (b, a)
            minus_src, minus_dst = (a, b) if forward_minus else (b, a)
            if not nx.has_path(graph_plus, plus_dst, plus_src) and not nx.has_path(
                graph_minus, minus_dst, minus_src
            ):
                add(a, b, relation)
                break
        else:  # pragma: no cover - valid placements always resolve
            raise AssertionError("unresolvable diagonal pair")
    return SequencePair(
        gamma_plus=tuple(nx.lexicographical_topological_sort(graph_plus)),
        gamma_minus=tuple(nx.lexicographical_topological_sort(graph_minus)),
    )


def _naive_relation(pair, a, b):
    """The pre-optimization relation(): rebuilds both position maps."""
    pos_plus = {name: i for i, name in enumerate(pair.gamma_plus)}
    pos_minus = {name: i for i, name in enumerate(pair.gamma_minus)}
    before_plus = pos_plus[a] < pos_plus[b]
    before_minus = pos_minus[a] < pos_minus[b]
    if before_plus and before_minus:
        return "left"
    if not before_plus and not before_minus:
        return "right"
    if not before_plus and before_minus:
        return "below"
    return "above"


# ----------------------------------------------------------------------
# sequence pair equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_from_rects_matches_networkx_reference(seed):
    rects = random_placement(35, seed=seed)
    assert SequencePair.from_rects(rects) == _reference_from_rects(rects)


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_match_naive_rebuild(seed):
    rects = random_placement(25, seed=100 + seed)
    pair = SequencePair.from_rects(rects)
    relations = pair.relations()
    names = pair.names
    assert len(relations) == len(names) * (len(names) - 1)
    for (a, b), relation in relations.items():
        assert relation == _naive_relation(pair, a, b)
        assert relation == pair.relation(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_extracted_pair_is_consistent_with_its_placement(seed):
    rects = random_placement(30, seed=200 + seed)
    pair = SequencePair.from_rects(rects)
    assert pair.is_consistent_with(rects)
    # breaking one geometric relation must be detected
    name = pair.names[0]
    moved = dict(rects)
    other = pair.names[-1]
    moved[name] = moved[other]  # force an in-place collision/violation
    consistent = pair.is_consistent_with(moved)
    reference = all(
        _check_relation(moved[a], moved[b], relation)
        for (a, b), relation in pair.relations().items()
    )
    assert consistent == reference


def _check_relation(ra, rb, relation):
    if relation == "left":
        return ra.col_end < rb.col
    if relation == "below":
        return ra.row_end < rb.row
    return True  # mirrored pairs carry the binding check


@pytest.mark.parametrize("seed", SEEDS)
def test_packing_realizes_every_relation(seed):
    rects = random_placement(30, seed=300 + seed)
    pair = SequencePair.from_rects(rects)
    widths = {name: rect.width for name, rect in rects.items()}
    heights = {name: rect.height for name, rect in rects.items()}
    packed = pair.packed_rects(widths, heights)
    assert pair.is_consistent_with(packed)
    # packing is also no larger than the placement it came from
    span_w = max(r.col_end for r in packed.values()) + 1
    span_h = max(r.row_end for r in packed.values()) + 1
    orig_w = max(r.col_end for r in rects.values()) + 1
    orig_h = max(r.row_end for r in rects.values()) + 1
    assert span_w <= orig_w
    assert span_h <= orig_h


def test_packing_of_known_pair():
    pair = SequencePair(("a", "b", "c"), ("a", "b", "c"))  # a left of b left of c
    packed = pair.pack({"a": 2, "b": 3, "c": 1}, {"a": 1, "b": 1, "c": 1})
    assert packed == {"a": (0, 0), "b": (2, 0), "c": (5, 0)}
    stacked = SequencePair(("c", "b", "a"), ("a", "b", "c"))  # a below b below c
    packed = stacked.pack({"a": 1, "b": 1, "c": 1}, {"a": 2, "b": 3, "c": 1})
    assert packed == {"a": (0, 0), "b": (0, 2), "c": (0, 5)}


# ----------------------------------------------------------------------
# annealing equivalence
# ----------------------------------------------------------------------
def _reference_floorplan(problem, options):
    """Anneal with the full-recompute oracle standing in for the incremental
    evaluator."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(annealing, "_IncrementalCostEvaluator", CostEvaluator)
        return annealing_floorplan(problem, options)


@pytest.mark.parametrize("seed", range(4))
def test_incremental_annealer_is_placement_identical(seed):
    problem = small_problem(f"anneal-eq-{seed}")
    options = AnnealingOptions(iterations=1500, seed=seed)
    reference = _reference_floorplan(problem, options)
    optimized = annealing_floorplan(problem, options)
    assert reference is not None and optimized is not None
    assert {n: p.rect for n, p in reference.placements.items()} == {
        n: p.rect for n, p in optimized.placements.items()
    }
    assert reference.metadata["final_cost"] == optimized.metadata["final_cost"]
    assert reference.solver_status == optimized.solver_status


def test_incremental_annealer_identical_on_wider_device():
    problem = scaling_problem(24, name="anneal-eq-wide")
    for seed in range(2):
        options = AnnealingOptions(iterations=1000, seed=seed)
        reference = _reference_floorplan(problem, options)
        optimized = annealing_floorplan(problem, options)
        assert {n: p.rect for n, p in reference.placements.items()} == {
            n: p.rect for n, p in optimized.placements.items()
        }
        assert reference.metadata["final_cost"] == optimized.metadata["final_cost"]
        assert reference.solver_status == optimized.solver_status


@pytest.mark.parametrize("seed", range(4))
def test_incremental_evaluator_costs_match_reference_under_fuzz(seed):
    """propose/commit/reject fuzzing: every cost equals a full re-evaluation."""
    import numpy as np

    problem = small_problem(f"fuzz-{seed}")
    options = AnnealingOptions(seed=seed)
    reference = CostEvaluator(problem, options)
    incremental = _IncrementalCostEvaluator(problem, options)
    state = random_rect_state(problem, seed=seed)
    assert incremental.reset(state) == reference.cost(state)
    assert incremental.feasible(state) == reference.is_feasible(state)

    rng = np.random.default_rng(1000 + seed)
    names = list(state)
    device = problem.device
    for _ in range(300):
        name = names[int(rng.integers(len(names)))]
        width = int(rng.integers(1, device.width + 1))
        height = int(rng.integers(1, device.height + 1))
        col = int(rng.integers(0, device.width - width + 1))
        row = int(rng.integers(0, device.height - height + 1))
        from repro.floorplan.geometry import Rect

        candidate = Rect(col, row, width, height)
        old_rect = state[name]
        state[name] = candidate
        cost = incremental.propose(name, candidate, state)
        assert cost == reference.cost(state)
        if rng.random() < 0.5:
            incremental.commit()
            assert incremental.feasible(state) == reference.is_feasible(state)
        else:
            incremental.reject()
            state[name] = old_rect
