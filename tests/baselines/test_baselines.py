"""Unit tests for the heuristic floorplanners."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    AnnealingOptions,
    annealing_floorplan,
    first_fit_floorplan,
    relocation_aware_greedy,
    tessellation_floorplan,
)
from repro.baselines.packing import (
    best_rect,
    by_frames,
    candidate_orders,
    feasible_rects,
    first_rect,
    region_anchors,
    sort_regions_by_demand,
    sort_regions_by_scarcity,
)
from repro.device.catalog import synthetic_device
from repro.device.grid import FPGADevice, ForbiddenRect
from repro.device.resources import ResourceVector
from repro.floorplan import Rect, verify_floorplan
from repro.floorplan.metrics import evaluate_floorplan
from repro.floorplan.placement import rect_frames, rect_resources
from repro.floorplan.problem import Region
from repro.relocation import RelocationSpec


def _rect_is_free(device, rect, occupied):
    """Inside the device, no forbidden cell, no overlap with ``occupied``."""
    if not rect.within(device.width, device.height):
        return False
    if any(rect.overlaps(other) for other in occupied):
        return False
    return device.forbidden_cell_count(rect.col, rect.row, rect.width, rect.height) == 0


def _reference_feasible_rects(device, region, occupied, align_rows=False):
    """The per-rectangle scan ``feasible_rects`` must reproduce exactly.

    Column-first, then decreasing height (powers of two only under
    ``align_rows``), then row; the narrowest free, resource-covering
    rectangle at each anchor.
    """
    height_options = [
        h for h in range(device.height, 0, -1) if not align_rows or h & (h - 1) == 0
    ]
    for col in range(device.width):
        for h in height_options:
            step = h if align_rows else 1
            rows = range(0, device.height - h + 1, step)
            for row in rows:
                for width in range(1, device.width - col + 1):
                    rect = Rect(col, row, width, h)
                    if not _rect_is_free(device, rect, occupied):
                        break
                    if region.max_width is not None and width > region.max_width:
                        continue
                    if region.max_height is not None and h > region.max_height:
                        continue
                    if rect_resources(device, rect).covers(region.requirements):
                        yield rect
                        break


@st.composite
def _packing_cases(draw):
    width, height = draw(st.integers(3, 10)), draw(st.integers(2, 5))
    base = synthetic_device(width, height, bram_every=draw(st.integers(2, 5)),
                            dsp_every=draw(st.integers(3, 7)), name="pack-dev")
    forbidden = [
        ForbiddenRect(f"f{i}", col=draw(st.integers(0, width - 1)),
                      row=draw(st.integers(0, height - 1)), width=1, height=1)
        for i in range(draw(st.integers(0, 2)))
    ]
    device = FPGADevice(
        "pack",
        [[base.tile_type_at(c, r) for r in range(height)] for c in range(width)],
        forbidden=forbidden,
    )
    region = Region(
        "r",
        ResourceVector(CLB=draw(st.integers(1, 5)), BRAM=draw(st.integers(0, 2))),
        max_width=draw(st.one_of(st.none(), st.integers(1, width))),
        max_height=draw(st.one_of(st.none(), st.integers(1, height))),
    )
    occupied = [
        Rect(draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)),
             draw(st.integers(1, 3)), draw(st.integers(1, 2)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return device, region, occupied, draw(st.booleans())


class TestPackingHelpers:
    def test_rect_resources_and_frames(self, small_device):
        rect = Rect(3, 0, 2, 2)  # includes the BRAM column at col 4
        resources = rect_resources(small_device, rect)
        assert resources.as_dict() == {"CLB": 2, "BRAM": 2}
        assert rect_frames(small_device, rect) == 2 * 36 + 2 * 30

    def test_first_and_best_rect(self, small_device, tiny_problem):
        region = tiny_problem.region_by_name("beta")  # 2 CLB + 1 BRAM
        anchors = region_anchors(small_device, [region])["beta"]
        first = first_rect(anchors, [])
        best = best_rect(anchors, [])
        assert first is not None and best is not None
        assert rect_resources(small_device, best).covers(region.requirements)
        assert rect_frames(small_device, best) <= rect_frames(small_device, first)

    @settings(max_examples=80, deadline=None)
    @given(_packing_cases())
    def test_iter_feasible_rects_matches_per_rectangle_scan(self, case):
        device, region, occupied, align_rows = case
        rects = feasible_rects(region_anchors(device, [region])["r"], occupied, align_rows)
        expected = list(_reference_feasible_rects(device, region, occupied, align_rows))
        assert [rects.rect(i) for i in range(len(rects))] == expected
        # best-fit order: fewest frames, then leftmost, lowest, tallest
        best = by_frames(rects)
        assert [best.rect(i) for i in range(len(best))] == sorted(
            expected, key=lambda rect: (rect_frames(device, rect), rect.col, rect.row)
        )

    def test_orderings(self, small_device, tiny_problem):
        by_demand = sort_regions_by_demand(tiny_problem.regions)
        assert by_demand[0].total_tiles >= by_demand[-1].total_tiles
        by_scarcity = sort_regions_by_scarcity(small_device, tiny_problem.regions)
        assert len(by_scarcity) == len(tiny_problem.regions)
        orders = candidate_orders(small_device, tiny_problem.regions)
        assert all(len(order) == len(tiny_problem.regions) for order in orders)
        signatures = {tuple(r.name for r in order) for order in orders}
        assert len(signatures) == len(orders)  # no duplicate orders


@pytest.mark.parametrize(
    "placer",
    [first_fit_floorplan, tessellation_floorplan, lambda p: tessellation_floorplan(p, align_rows=False)],
    ids=["first-fit", "tessellation", "tessellation-unaligned"],
)
class TestGreedyPlacers:
    def test_produces_verified_floorplan(self, placer, tiny_problem):
        floorplan = placer(tiny_problem)
        assert floorplan is not None and floorplan.is_complete
        assert verify_floorplan(floorplan, check_relocation=False).is_feasible

    def test_reports_solve_time(self, placer, tiny_problem):
        floorplan = placer(tiny_problem)
        assert floorplan.solve_time >= 0.0


class TestTessellationSpecifics:
    def test_explicit_order_respected(self, tiny_problem):
        floorplan = tessellation_floorplan(
            tiny_problem, region_order=["gamma", "beta", "alpha"]
        )
        assert floorplan is not None and floorplan.is_complete

    def test_alignment_does_not_beat_unaligned(self, tiny_problem):
        aligned = tessellation_floorplan(tiny_problem)
        unaligned = tessellation_floorplan(tiny_problem, align_rows=False)
        assert aligned is not None and unaligned is not None
        aligned_waste = evaluate_floorplan(aligned).wasted_frames
        unaligned_waste = evaluate_floorplan(unaligned).wasted_frames
        assert unaligned_waste <= aligned_waste


class TestAnnealing:
    def test_annealer_repairs_and_verifies(self, tiny_problem):
        floorplan = annealing_floorplan(
            tiny_problem, AnnealingOptions(iterations=4000, seed=7)
        )
        assert floorplan is not None
        assert floorplan.solver_status == "annealing"
        assert verify_floorplan(floorplan, check_relocation=False).is_feasible

    def test_seeded_runs_are_deterministic(self, tiny_problem):
        options = AnnealingOptions(iterations=1500, seed=11)
        first = annealing_floorplan(tiny_problem, options)
        second = annealing_floorplan(tiny_problem, options)
        assert {n: p.rect for n, p in first.placements.items()} == {
            n: p.rect for n, p in second.placements.items()
        }


class TestRelocationAwareGreedy:
    def test_reserves_requested_copies(self, tiny_problem):
        spec = RelocationSpec.as_constraint({"beta": 1, "gamma": 1})
        floorplan = relocation_aware_greedy(tiny_problem, spec)
        assert floorplan is not None
        assert floorplan.num_free_compatible_areas == 2
        assert verify_floorplan(floorplan).is_feasible

    def test_soft_requests_may_be_dropped(self, tiny_problem):
        spec = RelocationSpec.as_metric({"alpha": 8})  # impossible count
        floorplan = relocation_aware_greedy(tiny_problem, spec)
        assert floorplan is not None and floorplan.is_complete
        assert len(floorplan.free_areas) < 8

    def test_without_spec_behaves_like_greedy(self, tiny_problem):
        floorplan = relocation_aware_greedy(tiny_problem)
        assert floorplan is not None and not floorplan.free_areas
        assert verify_floorplan(floorplan).is_feasible

    def test_impossible_hard_request_returns_none(self, tiny_problem):
        spec = RelocationSpec.as_constraint({"alpha": 50})
        assert relocation_aware_greedy(tiny_problem, spec) is None
