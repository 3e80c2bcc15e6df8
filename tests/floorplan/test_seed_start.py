"""The heuristic seed as the MILP's start, and what a served answer owes it.

The builder maps the seed its incumbent filter accepted onto the model's
variables (:attr:`FloorplanMILP.start`), and the solver facade passes that
map to the backend.  So every solve with a seed answers with a floorplan at
least as good as the seed, also when its budget runs out.
"""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import scenarios
from repro.floorplan import FloorplanSolver
from repro.floorplan.ho import HOSeedError, HOSeeder
from repro.floorplan.metrics import evaluate_floorplan
from repro.floorplan.geometry import Rect
from repro.floorplan.milp_builder import build_floorplan_milp
from repro.floorplan.placement import RegionPlacement
from repro.floorplan.solver import run_job
from repro.floorplan.verify import verify_floorplan
from repro.milp import SolveStatus, SolverOptions
from repro.relocation.constraints import apply_relocation_constraints
from repro.relocation.spec import RelocationSpec
from repro.server.protocol import job_from_dict
from tests.properties.test_milp_pipeline_equivalence import _small_ho_problems
from tests.server.test_deadlines import _slow_payload


def _seed_objective(problem, relocation, weights=None):
    """The seed's eq.-14 objective, a soft copy it left out counted as missed."""
    seed = HOSeeder(problem).build_seed(spec=relocation).floorplan
    if relocation is not None:
        for area in relocation.build_area_specs(problem):
            if area.name not in seed.free_areas:
                seed.free_areas[area.name] = RegionPlacement(
                    name=area.name, rect=Rect(0, 0, 1, 1),
                    compatible_with=area.compatible_with, satisfied=False,
                )
    return evaluate_floorplan(seed, weights).objective


class TestStartMapping:
    def test_start_selects_the_seed_rectangles_and_is_feasible(self, tiny_problem):
        solver = FloorplanSolver(tiny_problem, mode="HO")
        milp = solver.build()
        seed = solver._seed.floorplan
        assert milp.start is not None
        assert milp.model.check_assignment(milp.start) == []
        for area in milp.areas:
            chosen = [i for i, var in enumerate(milp.z[area.name]) if milp.start[var] == 1.0]
            assert [milp.candidates[area.name].rect(i) for i in chosen] == [
                seed.placements[area.name].rect
            ]
        assert milp.model.objective_value(milp.start) == pytest.approx(
            evaluate_floorplan(seed).objective, abs=1e-12
        )

    def test_soft_area_the_seed_left_out_starts_violated(self, tiny_problem):
        spec = RelocationSpec.as_metric({tiny_problem.regions[0].name: 1})
        areas = spec.build_area_specs(tiny_problem)
        seed = HOSeeder(tiny_problem).seed_regions()  # reserves no copy
        milp = build_floorplan_milp(tiny_problem, extra_areas=areas, incumbent=seed)
        apply_relocation_constraints(milp)
        free = areas[0].name
        assert milp.start[milp.violation[free]] == 1.0
        assert all(milp.start[var] == 0.0 for var in milp.z[free])
        assert milp.model.check_assignment(milp.start) == []

    def test_no_filter_no_start(self, tiny_problem):
        seed = HOSeeder(tiny_problem).seed_regions()
        assert build_floorplan_milp(tiny_problem, incumbent=seed, prune=False).start is None
        milp = build_floorplan_milp(tiny_problem, incumbent=seed)
        assert milp.start is not None
        milp.cap_wasted_frames(milp.filter_bound)
        assert milp.start is None  # the cap may cut the seed off


def test_deadline_instance_answers_with_the_seed_when_the_budget_runs_out():
    """Without the start, this budget ends in TIME_LIMIT with no floorplan."""
    job = job_from_dict(_slow_payload())
    job = dataclasses.replace(job, options=job.options.replace(time_limit=0.5))
    started = time.perf_counter()
    report = run_job(job)
    elapsed = time.perf_counter() - started
    assert report.solution.status is SolveStatus.FEASIBLE
    assert report.feasible  # a verified floorplan
    assert report.solution.objective <= _seed_objective(job.problem, None) + 1e-9
    assert elapsed < 10.0


def test_heavy_payloads_are_never_served_worse_than_their_seed():
    for payload in scenarios.server_payloads(heavy=True):
        job = job_from_dict(payload)
        report = run_job(job)
        solution = report.solution
        assert report.feasible, job.name
        seed = _seed_objective(job.problem, job.relocation, job.weights)
        assert solution.objective <= seed + 1e-9, job.name
        # the gap HiGHS stopped at is the gap of the served objective
        true_gap = (solution.objective - solution.bound) / solution.objective
        assert true_gap <= job.options.mip_gap + 1e-9, (job.name, true_gap)


@given(case=_small_ho_problems(), mip_gap=st.sampled_from([None, 0.1, 0.5]))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_served_objective_is_never_worse_than_the_seed(case, mip_gap):
    problem, relocation = case
    try:
        seed = _seed_objective(problem, relocation)
    except HOSeedError:
        return  # no HO seed, no HO model
    report = FloorplanSolver(
        problem, relocation=relocation, mode="HO",
        options=SolverOptions(time_limit=30, mip_gap=mip_gap),
    ).solve()
    assert report.solution.status.has_solution
    assert verify_floorplan(report.floorplan).is_feasible
    assert report.metrics.objective == pytest.approx(report.solution.objective, abs=1e-9)
    assert report.solution.objective <= seed + 1e-9
    assert np.isfinite(report.solution.bound)
