"""Property/fuzz tests of the fast MILP pipeline.

Four equivalences are enforced:

* HiGHS and branch and bound agree on whether
  randomized MILPs have a solution and on their optimal objective, and every
  returned assignment satisfies the model;
* filtered and unfiltered ``build_floorplan_milp`` models extract identical
  optimal floorplans (the incumbent filter is exact, and HO-mode fixed
  relations remove the symmetry that would otherwise let the solver pick a
  different tie-optimal layout);
* on random small HO problems with no, hard and soft relocation, the relation
  filter keeps every rectangle of the HO seed, and pruned and unpruned solves
  agree on status and objective with verified floorplans.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import scenarios
from repro.device.catalog import synthetic_device
from repro.device.resources import ResourceVector
from repro.floorplan import FloorplanSolver, ObjectiveWeights
from repro.floorplan.ho import HOSeedError, HOSeeder
from repro.floorplan.milp_builder import build_floorplan_milp
from repro.floorplan.problem import Connection, FloorplanProblem, IOPin, Region
from repro.floorplan.verify import verify_floorplan
from repro.milp import Model, SolveStatus, SolverOptions, solve
from repro.relocation.constraints import apply_relocation_constraints
from repro.relocation.spec import RelocationSpec
from repro.workloads.synthetic import SyntheticWorkloadConfig, synthetic_problem

OBJ_TOL = 1e-6


def _anchored(problem: FloorplanProblem) -> FloorplanProblem:
    """Tie one region to a fixed I/O pin so translation ties disappear.

    Without an absolute anchor an optimal layout can slide across the fabric
    at equal cost, and the pruned/unpruned solves may pick different (equally
    optimal) translates; the pin makes the optimum unique so "identical
    floorplans" is well-defined.
    """
    anchor = IOPin("anchor", col=0, row=0)
    connections = list(problem.connections) + [
        Connection(region.name, "anchor", weight=2.0) for region in problem.regions
    ]
    return FloorplanProblem(
        problem.device,
        list(problem.regions),
        connections,
        pins=[anchor],
        name=f"{problem.name}-anchored",
    )


def _random_model(seed: int) -> Model:
    """A seeded random MILP with singleton/duplicate/fixed structure.

    A random point inside the variable bounds is planted first, and each
    row's right-hand side is chosen so that the point satisfies it: the
    models are feasible, so the backends' objectives can be compared.
    """
    rng = np.random.default_rng(seed)
    model = Model(f"fuzz-{seed}")
    nvars = int(rng.integers(4, 10))
    variables = []
    point = []
    for i in range(nvars):
        kind = rng.random()
        if kind < 0.4:
            variables.append(model.add_binary(f"b{i}"))
            point.append(float(rng.integers(0, 2)))
        elif kind < 0.75:
            lb = int(rng.integers(-3, 1))
            ub = lb + int(rng.integers(2, 8))
            variables.append(model.add_integer(f"i{i}", lb=lb, ub=ub))
            point.append(float(rng.integers(lb, ub + 1)))
        else:
            lb = float(rng.uniform(-2, 0))
            ub = lb + float(rng.uniform(1, 6))
            variables.append(model.add_continuous(f"c{i}", lb=lb, ub=ub))
            point.append(float(rng.uniform(lb, ub)))
    # occasionally fix a variable outright
    if rng.random() < 0.5:
        variables.append(model.add_continuous(f"f{nvars}", lb=1.25, ub=1.25))
        point.append(1.25)

    ncons = int(rng.integers(3, 9))
    for c in range(ncons):
        chosen = rng.choice(len(variables), size=int(rng.integers(1, 4)), replace=False)
        coefs = rng.integers(-4, 5, size=chosen.size)
        expr = sum(
            int(k) * variables[int(j)] for j, k in zip(chosen, coefs) if int(k) != 0
        )
        if isinstance(expr, int):  # all coefficients were zero
            continue
        activity = sum(int(k) * point[int(j)] for j, k in zip(chosen, coefs))
        slack = float(rng.integers(0, 4))
        roll = rng.random()
        if roll < 0.45:
            constraint = expr <= activity + slack
        elif roll < 0.9:
            constraint = expr >= activity - slack
        else:
            constraint = expr == activity
        model.add(constraint, name=f"r{c}")
        if rng.random() < 0.25:  # inject a duplicate row
            model.add(constraint, name=f"r{c}_dup")

    objective = sum(
        float(rng.integers(-5, 6)) * v for v in variables
    )
    if rng.random() < 0.5:
        model.minimize(objective)
    else:
        model.maximize(objective)
    return model


RANDOM_SEEDS = range(20)


@functools.lru_cache(maxsize=None)
def _solved_by_highs(seed: int):
    """``_random_model(seed)`` and its HiGHS solution, shared by the tests."""
    model = _random_model(seed)
    return model, solve(model, SolverOptions())


class TestBackendDifferential:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_models_agree_across_backends(self, seed):
        model, reference = _solved_by_highs(seed)
        results = {
            "highs": reference,
            "branch-bound": solve(model, SolverOptions(backend="branch-bound", time_limit=30)),
        }
        for name, result in results.items():
            assert result.status.has_solution == reference.status.has_solution, name
            if result.status.has_solution:
                assert result.objective == pytest.approx(reference.objective, abs=OBJ_TOL), name
                assert model.check_assignment(result.values) == [], name

    def test_random_models_are_mostly_feasible(self):
        feasible = sum(_solved_by_highs(seed)[1].status.has_solution for seed in RANDOM_SEEDS)
        assert feasible >= 15


class TestPrunedVsUnprunedBuilds:
    def _solve_both(self, problem, weights):
        """Build filtered/unfiltered HO models and solve them identically."""
        seed = HOSeeder(problem).build_seed()
        extracted = {}
        for prune in (False, True):
            milp = build_floorplan_milp(
                problem,
                fixed_relations=seed.fixed_relations(),
                prune=prune,
                incumbent=seed.floorplan,
                weights=weights,
            )
            solution = solve(
                milp.model,
                SolverOptions(time_limit=scenarios.bench_time_limit(120.0)),
            )
            assert solution.status is SolveStatus.OPTIMAL
            extracted[prune] = (solution, milp.extract(solution))
        return extracted

    @pytest.mark.parametrize(
        "problem_factory",
        [
            lambda: _anchored(scenarios.small_problem("prune-eq-small")),
            lambda: _anchored(scenarios.pruning_problem(32, name="prune-eq-pinned")),
        ],
        ids=["small", "resource-pinned"],
    )
    def test_identical_optimal_floorplans(self, problem_factory):
        problem = problem_factory()
        weights = ObjectiveWeights(wirelength=1.0, wasted_frames=1.0)
        extracted = self._solve_both(problem, weights)
        raw_solution, raw_plan = extracted[False]
        pruned_solution, pruned_plan = extracted[True]
        assert pruned_solution.objective == pytest.approx(
            raw_solution.objective, abs=OBJ_TOL
        )
        raw_rects = {name: p.rect for name, p in raw_plan.placements.items()}
        pruned_rects = {name: p.rect for name, p in pruned_plan.placements.items()}
        assert pruned_rects == raw_rects

    def test_filtered_model_is_smaller_on_pinned_regions(self):
        problem = scenarios.pruning_problem(32, name="prune-shrink")
        seed = HOSeeder(problem).build_seed()
        builds = {
            prune: build_floorplan_milp(
                problem,
                fixed_relations=seed.fixed_relations(),
                prune=prune,
                incumbent=seed.floorplan,
            )
            for prune in (False, True)
        }
        full, pruned = builds[False].model.stats(), builds[True].model.stats()
        assert builds[True].kept < builds[False].kept == builds[True].enumerated
        assert pruned.num_variables < full.num_variables
        assert pruned.num_nonzeros < full.num_nonzeros


@st.composite
def _small_ho_problems(draw):
    """A small synthetic problem plus no, hard or soft relocation of ``R0``."""
    width, height = draw(st.integers(6, 10)), draw(st.integers(3, 5))
    config = SyntheticWorkloadConfig(
        num_regions=draw(st.integers(2, 3)),
        utilization=draw(st.sampled_from([0.2, 0.35, 0.5])),
        seed=draw(st.integers(0, 1000)),
    )
    problem = synthetic_problem(synthetic_device(width, height), config, name="prop-ho")
    copies = draw(st.integers(1, 2))
    relocation = draw(
        st.sampled_from(
            [
                None,
                RelocationSpec.as_constraint({"R0": copies}),
                RelocationSpec.as_metric({"R0": copies}),
            ]
        )
    )
    return problem, relocation


class TestRelationFilter:
    @given(case=_small_ho_problems())
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_relation_filter_is_exact(self, case):
        problem, relocation = case
        try:
            seed = HOSeeder(problem).build_seed(spec=relocation)
        except HOSeedError:
            return  # no HO seed, no HO model
        options = SolverOptions(time_limit=30, mip_gap=0.0)
        solvers = {
            prune: FloorplanSolver(
                problem, relocation=relocation, mode="HO", options=options,
                seed_floorplan=seed.floorplan, prune=prune,
            )
            for prune in (False, True)
        }
        milp = solvers[True].build()
        for placement in seed.floorplan.all_placements():
            cand = milp.candidates[placement.name]
            rect = placement.rect
            assert np.any(
                (cand.x == rect.col) & (cand.y == rect.row)
                & (cand.w == rect.width) & (cand.h == rect.height)
            ), placement.name

        reports = {prune: solver.solve() for prune, solver in solvers.items()}
        assert reports[True].solution.status is reports[False].solution.status
        for report in reports.values():
            assert report.solution.status is SolveStatus.OPTIMAL
            assert verify_floorplan(report.floorplan).is_feasible
        assert reports[True].solution.objective == pytest.approx(
            reports[False].solution.objective, abs=OBJ_TOL
        )

    @pytest.mark.parametrize("relation, pin_col", [("left", 11), ("right", 0)])
    def test_soft_partner_narrows_nothing(self, relation, pin_col):
        """The optimum gives the soft copy up to put ``R`` where its partner
        would have to be; the filter must not have dropped that rectangle."""
        device = synthetic_device(12, 3)
        problem = FloorplanProblem(
            device, [Region("R", ResourceVector(CLB=2))], [Connection("R", "pin", weight=8.0)],
            pins=[IOPin("pin", col=pin_col, row=0)], name="soft-partner",
        )
        areas = RelocationSpec.as_metric({"R": 1}).build_area_specs(problem)
        weights = ObjectiveWeights(wirelength=1.0, wasted_frames=0.0, relocation=0.01)
        solved = {}
        for prune in (False, True):
            milp = build_floorplan_milp(
                problem, extra_areas=areas, fixed_relations={("R", areas[0].name): relation},
                prune=prune, weights=weights,
            )
            apply_relocation_constraints(milp)
            solution = solve(milp.model, SolverOptions(mip_gap=0.0))
            solved[prune] = (solution, milp.extract(solution))
        assert solved[True][0].objective == pytest.approx(solved[False][0].objective, abs=OBJ_TOL)
        floorplan = solved[True][1]
        assert floorplan.placements["R"].rect.col == pin_col
        assert not floorplan.free_areas[areas[0].name].satisfied
