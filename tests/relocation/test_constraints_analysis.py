"""Tests of the MILP relocation extension (Sections IV and V) and the analysis."""

import numpy as np
import pytest

from repro.floorplan import FloorplanSolver, verify_floorplan
from repro.floorplan.milp_builder import build_floorplan_milp
from repro.relocation import (
    RelocationSpec,
    apply_relocation_constraints,
    feasibility_analysis,
)
from repro.relocation.analysis import count_reachable_copies, reachable_copies_by_region
from repro.relocation.metric import (
    relocation_cost,
    relocation_cost_normalized,
    relocation_summary,
    satisfied_areas_by_region,
)


class TestRelocationConstraints:
    def test_one_row_per_free_area_signature(self, tiny_problem):
        from repro.floorplan.candidates import signature_keys

        spec = RelocationSpec.as_constraint({"beta": 1})
        milp = build_floorplan_milp(tiny_problem, extra_areas=spec.build_area_specs(tiny_problem))
        added = apply_relocation_constraints(milp)
        assert added.pairs == [("beta 1", "beta")]
        keys = signature_keys(milp.partition, milp.candidates["beta 1"])
        assert added.signatures == {"beta 1": len(set(keys.tolist()))}
        # the assignment row plus one compatibility row per signature
        assert added.num_constraints_added == 1 + added.signatures["beta 1"]
        # every free candidate shares a signature with some region candidate
        region_keys = set(signature_keys(milp.partition, milp.candidates["beta"]).tolist())
        assert set(keys.tolist()) <= region_keys

    def test_no_free_areas_is_a_noop(self, tiny_problem):
        milp = build_floorplan_milp(tiny_problem)
        added = apply_relocation_constraints(milp)
        assert added.pairs == [] and added.num_constraints_added == 0

    def test_signatures_match_areas_compatible(self, tiny_problem):
        from repro.floorplan.candidates import enumerate_candidates, signature_keys
        from repro.relocation import areas_compatible

        spec = RelocationSpec.as_constraint({"beta": 1})
        area = spec.build_area_specs(tiny_problem)[0]
        candidates = enumerate_candidates(tiny_problem.device, area)
        keys = signature_keys(tiny_problem.partition, candidates).tolist()
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, len(candidates), size=(400, 2)).tolist():
            same = keys[i] == keys[j]
            assert same == areas_compatible(
                tiny_problem.partition, candidates.rect(i), candidates.rect(j)
            )

    def test_soft_areas_get_violation_binaries(self, tiny_problem):
        spec = RelocationSpec.as_metric({"beta": 1, "gamma": 1})
        milp = build_floorplan_milp(tiny_problem, extra_areas=spec.build_area_specs(tiny_problem))
        assert set(milp.violation) == {"beta 1", "gamma 1"}
        rl_cost = milp.relocation_cost_expr()
        assert len(list(rl_cost.variables())) == 2
        assert milp.relocation_cost_max() == pytest.approx(2.0)

    def test_hard_constraint_solution_is_truly_compatible(self, tiny_relocation_solution):
        report, spec = tiny_relocation_solution
        floorplan = report.floorplan
        assert floorplan.num_free_compatible_areas == spec.total_copies
        # the independent verifier re-checks Definition .2 geometrically
        assert verify_floorplan(floorplan).is_feasible

    def test_each_area_selects_exactly_one_candidate(self, tiny_relocation_solution):
        """The extracted rectangle is the one candidate whose binary is set."""
        report, _ = tiny_relocation_solution
        milp = report.milp
        for area in milp.areas:
            chosen = [
                i for i, var in enumerate(milp.z[area.name])
                if report.solution.value(var) > 0.5
            ]
            assert len(chosen) == 1
            placement = report.floorplan.placement_for(area.name)
            assert milp.candidates[area.name].rect(chosen[0]) == placement.rect

    def test_metric_mode_never_infeasible(self, tiny_problem, fast_options):
        # request an impossible number of copies: soft mode must still solve
        spec = RelocationSpec.as_metric({"alpha": 6})
        report = FloorplanSolver(tiny_problem, relocation=spec, options=fast_options).solve()
        assert report.solution.status.has_solution
        floorplan = report.floorplan
        assert len(floorplan.free_areas) == 6
        assert floorplan.num_free_compatible_areas < 6  # some areas violated
        summary = relocation_summary(floorplan, spec)[0]
        assert summary.missed == summary.requested - summary.satisfied
        assert relocation_cost(floorplan, spec) == pytest.approx(summary.missed * 1.0)
        assert 0 < relocation_cost_normalized(floorplan, spec) <= 1

    def test_satisfied_areas_by_region(self, tiny_relocation_solution):
        report, _ = tiny_relocation_solution
        counts = satisfied_areas_by_region(report.floorplan)
        assert counts == {"beta": 1, "gamma": 1}


class TestFeasibilityAnalysis:
    def test_per_region_feasibility(self, tiny_problem, fast_options):
        results = feasibility_analysis(
            tiny_problem, regions=["beta", "gamma"], options=fast_options
        )
        assert [r.region for r in results] == ["beta", "gamma"]
        for result in results:
            assert result.feasible
            assert result.floorplan is not None
            assert result.floorplan.num_free_compatible_areas == 1

    def test_reachable_copies_counting(self, tiny_solution):
        floorplan = tiny_solution.floorplan
        counts = reachable_copies_by_region(floorplan)
        assert set(counts) == set(floorplan.placements)
        for name, count in counts.items():
            assert count >= 0
            assert count == count_reachable_copies(floorplan, name)

    def test_reachable_copies_respects_cap(self, tiny_solution):
        floorplan = tiny_solution.floorplan
        name = next(iter(floorplan.placements))
        unlimited = count_reachable_copies(floorplan, name)
        capped = count_reachable_copies(floorplan, name, max_copies=1)
        assert capped <= min(1, unlimited) or capped == min(1, unlimited)
