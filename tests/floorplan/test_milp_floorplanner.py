"""Integration-style tests of the MILP floorplanner (O and HO modes).

These tests use the small session-scoped problems of ``conftest.py`` so the
solver runs stay in the seconds range.
"""

import pytest

from repro.floorplan import FloorplanSolver, ObjectiveWeights
from repro.floorplan.milp_builder import AreaSpec, build_floorplan_milp
from repro.floorplan.ho import HOSeeder
from repro.milp import SolveStatus


class TestMilpBuilder:
    def test_one_binary_per_candidate(self, tiny_problem):
        milp = build_floorplan_milp(tiny_problem)
        for region in tiny_problem.region_names:
            assert len(milp.z[region]) == len(milp.candidates[region]) > 0
        stats = milp.model.stats()
        assert stats.num_binary == milp.kept == milp.enumerated
        names = {constraint.name for constraint in milp.model.constraints}
        assert {f"assign[{region}]" for region in tiny_problem.region_names} <= names

    def test_duplicate_area_names_rejected(self, tiny_problem):
        from repro.device.resources import ResourceVector

        with pytest.raises(ValueError):
            build_floorplan_milp(
                tiny_problem,
                extra_areas=[AreaSpec("alpha", ResourceVector.zero(), compatible_with="beta")],
            )

    def test_fixed_relations_replace_cell_rows(self, tiny_problem):
        relations = {("alpha", "beta"): "left", ("alpha", "gamma"): "left",
                     ("beta", "gamma"): "below"}
        free = build_floorplan_milp(tiny_problem)
        fixed = build_floorplan_milp(tiny_problem, fixed_relations=relations)
        fixed_names = [c.name for c in fixed.model.constraints]
        free_names = [c.name for c in free.model.constraints]
        prefixes = [f"sp_{relation}[{a}|{b}," for (a, b), relation in relations.items()]
        for prefix in prefixes:
            assert any(name.startswith(prefix) for name in fixed_names), prefix
        assert all(
            any(name.startswith(prefix) for prefix in prefixes)
            for name in fixed_names
            if name.startswith("sp_")
        )
        assert not any(name.startswith("cell[") for name in fixed_names)
        assert any(name.startswith("cell[") for name in free_names)
        assert not any(name.startswith("sp_") for name in free_names)

        # select the alpha candidate that ends last and the beta candidate
        # that starts first: alpha is then not left of beta
        model = fixed.model
        alpha, beta = fixed.candidates["alpha"], fixed.candidates["beta"]
        picks = {
            "alpha": int((alpha.x + alpha.w).argmax()),
            "beta": int(beta.x.argmin()),
            "gamma": 0,
        }
        assert alpha.x[picks["alpha"]] + alpha.w[picks["alpha"]] > beta.x[picks["beta"]]
        values = {var: 0.0 for var in model.variables}
        for name, index in picks.items():
            values[fixed.z[name][index]] = 1.0
        for var in model.variables:
            if var.name.startswith("wl_"):
                values[var] = 1e6  # wirelength rows are lower bounds only
        violated = [c.name for c in model.check_assignment(values)]
        assert any(name.startswith(prefixes[0]) for name in violated), violated

    def test_filtered_model_refuses_other_weights(self, tiny_problem):
        seed = HOSeeder(tiny_problem).build_seed()
        weights = ObjectiveWeights(wirelength=0.0, wasted_frames=1.0)
        milp = build_floorplan_milp(
            tiny_problem,
            fixed_relations=seed.fixed_relations(),
            incumbent=seed.floorplan,
            weights=weights,
        )
        assert milp.kept < milp.enumerated
        milp.set_objective(weights)  # the weights it was filtered for
        with pytest.raises(ValueError, match="filtered"):
            milp.set_objective(ObjectiveWeights(wirelength=1.0, wasted_frames=0.0))
        # the lexicographic area cap releases the filter exactly
        milp.cap_wasted_frames(float("inf"))
        assert milp.filter_weights is None
        milp.set_objective(ObjectiveWeights(wirelength=1.0, wasted_frames=0.0))


class TestOMode:
    def test_solution_is_verified_feasible(self, tiny_solution):
        assert tiny_solution.verification is not None
        assert tiny_solution.verification.is_feasible
        assert tiny_solution.floorplan.is_complete

    def test_every_region_covers_its_resources(self, tiny_solution):
        floorplan = tiny_solution.floorplan
        device = floorplan.device
        for name, placement in floorplan.placements.items():
            region = floorplan.problem.region_by_name(name)
            assert placement.covered_resources(device).covers(region.requirements)

    def test_metrics_reported(self, tiny_solution):
        metrics = tiny_solution.metrics
        assert metrics is not None
        assert metrics.wasted_frames >= 0
        assert metrics.covered_frames >= metrics.required_frames

    def test_extracted_objective_matches_solver(self, tiny_solution):
        assert tiny_solution.floorplan.objective == pytest.approx(
            tiny_solution.solution.objective, abs=1e-6
        )

    def test_infeasible_instance_detected(self, small_device, fast_options):
        from repro.device.resources import ResourceVector
        from repro.floorplan.problem import FloorplanProblem, Region

        # demand every CLB tile in a single region plus another region: the
        # aggregate fits but the max-width cap makes it geometrically impossible
        problem = FloorplanProblem(
            small_device,
            [
                Region("big", ResourceVector(CLB=20), max_width=2, max_height=2),
            ],
            name="impossible",
        )
        report = FloorplanSolver(problem, options=fast_options).solve()
        assert report.solution.status is SolveStatus.INFEASIBLE
        assert not report.feasible

    def test_lexicographic_solve_does_not_worsen_area(self, tiny_problem, fast_options):
        plain = FloorplanSolver(tiny_problem, options=fast_options).solve(
            weights=ObjectiveWeights(wirelength=0.0, wasted_frames=1.0)
        )
        lex = FloorplanSolver(tiny_problem, options=fast_options).solve(
            lexicographic=True
        )
        assert lex.metrics is not None and plain.metrics is not None
        assert lex.metrics.wasted_frames <= plain.metrics.wasted_frames + 1e-6

    def test_lexicographic_solve_is_verified_and_caps_area(
        self, tiny_problem, fast_options
    ):
        report = FloorplanSolver(tiny_problem, options=fast_options).solve(
            lexicographic=True
        )
        # phase 2 must return a verified-feasible floorplan...
        assert report.feasible
        assert report.verification.is_feasible
        assert report.metrics is not None
        # ...solved against the phase-1 area cap added to the model
        names = [constraint.name for constraint in report.milp.model.constraints]
        assert "lex_area_cap" in names

    def test_lexicographic_matches_area_optimum(self, tiny_problem, fast_options):
        area_only = FloorplanSolver(
            tiny_problem, options=fast_options.replace(mip_gap=None)
        ).solve(weights=ObjectiveWeights(wirelength=0.0, wasted_frames=1.0))
        lex = FloorplanSolver(
            tiny_problem, options=fast_options.replace(mip_gap=None)
        ).solve(lexicographic=True)
        # with both phases solved to optimality, the lexicographic wasted-frame
        # count equals the pure area optimum (the Section VI protocol)
        assert lex.metrics.wasted_frames == area_only.metrics.wasted_frames

    def test_invalid_mode_rejected(self, tiny_problem):
        with pytest.raises(ValueError):
            FloorplanSolver(tiny_problem, mode="X")


class TestHOMode:
    def test_ho_seed_matches_sequence_pair(self, tiny_problem):
        seeder = HOSeeder(tiny_problem)
        seed = seeder.build_seed()
        rects = {p.name: p.rect for p in seed.floorplan.all_placements()}
        assert seed.sequence_pair.is_consistent_with(rects)

    def test_ho_solves_and_verifies(self, tiny_problem, fast_options):
        report = FloorplanSolver(tiny_problem, mode="HO", options=fast_options).solve()
        assert report.solution.status.has_solution
        assert report.verification.is_feasible
        assert report.floorplan.metadata.get("ho_seed_status")

    def test_solve_keeps_no_reference_to_its_device(self, fast_options):
        """A server decodes a new device per request: nothing may pin it."""
        import gc
        import weakref

        from repro.bench import scenarios
        from repro.relocation.spec import RelocationSpec

        problem = scenarios.scaling_problem(12)
        device = weakref.ref(problem.device)
        report = FloorplanSolver(
            problem, relocation=RelocationSpec.as_metric({"A": 1}), mode="HO",
            options=fast_options,
        ).solve()
        assert report.solution.status.has_solution
        del problem, report
        gc.collect()
        assert device() is None

    def test_ho_not_worse_than_its_seed(self, tiny_problem, fast_options):
        from repro.floorplan.metrics import evaluate_floorplan

        seeder = HOSeeder(tiny_problem)
        seed = seeder.build_seed()
        seed_metrics = evaluate_floorplan(seed.floorplan)
        report = FloorplanSolver(tiny_problem, mode="HO", options=fast_options).solve(
            weights=ObjectiveWeights(wirelength=0.0, wasted_frames=1.0)
        )
        assert report.metrics.wasted_frames <= seed_metrics.wasted_frames + 1e-6

    def test_metrics_objective_uses_the_solve_weights(self, fast_options):
        from repro.bench import scenarios

        weights = ObjectiveWeights(wirelength=1.0, wasted_frames=0.0)
        report = FloorplanSolver(
            scenarios.small_problem(), mode="HO", options=fast_options
        ).solve(weights=weights)
        assert report.metrics.objective == pytest.approx(report.solution.objective, abs=1e-9)

    def test_lexicographic_metrics_objective_matches_the_final_phase(
        self, tiny_problem, fast_options
    ):
        report = FloorplanSolver(tiny_problem, mode="HO", options=fast_options).solve(
            lexicographic=True
        )
        assert report.metrics.objective == pytest.approx(report.solution.objective, abs=1e-9)


class TestStageAnnotations:
    def test_run_job_stages_carry_candidate_and_node_counts(self, tiny_problem, fast_options):
        from repro.floorplan.metrics import wasted_frames
        from repro.floorplan.ho import HOSeeder
        from repro.floorplan.solver import run_job
        from repro.service.jobs import SolveJob

        stages = run_job(SolveJob(tiny_problem, mode="HO", options=fast_options)).stages
        by_name = {stage["name"]: stage for stage in stages}
        # seeding is its own stage, recorded before the model build
        assert [stage["name"] for stage in stages][:2] == ["floorplan.ho_seed", "floorplan.build"]
        seed = HOSeeder(tiny_problem).build_seed().floorplan
        assert by_name["floorplan.ho_seed"]["seed_status"] == seed.solver_status
        assert by_name["floorplan.ho_seed"]["seed_wasted_frames"] == wasted_frames(seed)
        build = by_name["floorplan.build"]
        assert 0 < build["candidates_kept"] <= build["candidates"]
        assert by_name["milp.search"]["nodes"] >= 0

    def test_stages_show_each_filter_and_the_search_bound(self, tiny_problem, fast_options):
        from repro.floorplan.solver import run_job
        from repro.service.jobs import SolveJob

        report = run_job(SolveJob(tiny_problem, mode="HO", options=fast_options))
        by_name = {stage["name"]: stage for stage in report.stages}
        build = by_name["floorplan.build"]
        # the relation filter removes candidates on its own in HO mode
        assert 0 < build["candidates_kept"] <= build["candidates_related"] < build["candidates"]
        assert by_name["milp.search"]["bound"] == report.solution.bound
        assert report.solution.bound <= report.solution.objective + 1e-9

    def test_search_stage_shows_the_start_presolve_and_model_status(self, tiny_problem):
        from repro.floorplan.ho import HOSeeder
        from repro.floorplan.metrics import evaluate_floorplan
        from repro.floorplan.solver import run_job
        from repro.service.jobs import SolveJob

        report = run_job(SolveJob(tiny_problem, mode="HO"))
        (search,) = [stage for stage in report.stages if stage["name"] == "milp.search"]
        seed = HOSeeder(tiny_problem).build_seed().floorplan
        assert search["start_objective"] == pytest.approx(
            evaluate_floorplan(seed).objective, abs=1e-12
        )
        assert report.solution.objective <= search["start_objective"] + 1e-12
        assert (search["presolve"], search["model_status"]) == ("off", "Optimal")

    def test_o_mode_searches_from_the_seed_with_presolve(self, tiny_problem):
        from repro.floorplan.solver import run_job
        from repro.service.jobs import SolveJob

        report = run_job(SolveJob(tiny_problem, mode="O"))
        (search,) = [stage for stage in report.stages if stage["name"] == "milp.search"]
        assert search["start_objective"] is not None
        assert report.solution.objective <= search["start_objective"] + 1e-12
        assert (search["presolve"], search["model_status"]) == ("on", "Optimal")
