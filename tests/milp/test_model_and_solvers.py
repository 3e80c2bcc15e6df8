"""Unit tests for the Model container and both MILP backends."""

import math

import numpy as np
import pytest
from scipy import sparse

from repro.milp import (
    Model,
    MILPSolution,
    Sense,
    SolveStatus,
    SolverOptions,
    prepare_model,
    quicksum,
    solve,
    split_matrix_form,
)
from repro.obs.trace import collect_stages

BACKENDS = ["highs", "branch-bound"]


class TestModel:
    def test_duplicate_variable_name_rejected(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ValueError):
            model.add_var("x")

    def test_variable_lookup_by_name(self):
        model = Model()
        x = model.add_integer("x", lb=1, ub=3)
        assert model.variable_by_name("x") is x

    def test_add_requires_constraint(self):
        model = Model()
        with pytest.raises(TypeError):
            model.add("not a constraint")

    def test_stats_counts(self):
        model = Model()
        x = model.add_integer("x", ub=4)
        y = model.add_binary("y")
        z = model.add_continuous("z", ub=1)
        model.add(x + y + z <= 3)
        model.add(x - y >= 0)
        stats = model.stats()
        assert stats.num_variables == 3
        assert stats.num_binary == 1
        assert stats.num_integer == 1
        assert stats.num_continuous == 1
        assert stats.num_constraints == 2
        assert stats.num_nonzeros == 5

    def test_matrix_form_shapes(self):
        model = Model()
        x = model.add_integer("x", ub=4)
        y = model.add_continuous("y", ub=2)
        model.add(x + 2 * y <= 4)
        model.add(x - y == 1)
        model.minimize(x + y)
        form = model.to_matrix_form()
        assert form.constraint_matrix.shape == (2, 2)
        assert form.integrality.tolist() == [1, 0]
        assert np.isinf(form.constraint_lb[0]) and form.constraint_ub[0] == 4
        assert form.constraint_lb[1] == form.constraint_ub[1] == 1

    def test_maximize_is_negated_in_matrix_form(self):
        model = Model()
        x = model.add_continuous("x", ub=5)
        model.maximize(x)
        form = model.to_matrix_form()
        assert form.objective[0] == -1.0

    def test_check_assignment_detects_violations(self):
        model = Model()
        x = model.add_integer("x", lb=0, ub=3)
        model.add(x <= 2, name="cap")
        assert model.check_assignment({x: 2.0}) == []
        violated = model.check_assignment({x: 3.0})
        assert any(c.name == "cap" for c in violated)
        fractional = model.check_assignment({x: 1.5})
        assert any("integrality" in (c.name or "") for c in fractional)

    def test_lp_export_mentions_sections(self):
        model = Model("export")
        x = model.add_integer("x", ub=2)
        y = model.add_binary("y")
        model.add(x + y <= 2, name="c0")
        model.minimize(x)
        text = model.to_lp_string()
        for token in ("Minimize", "Subject To", "Bounds", "General", "Binary", "c0"):
            assert token in text


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackends:
    def test_simple_integer_program(self, backend):
        model = Model()
        x = model.add_integer("x", lb=0, ub=10)
        y = model.add_integer("y", lb=0, ub=10)
        model.add(x + y <= 7)
        model.add(x - y <= 2)
        model.maximize(2 * x + y)
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.OPTIMAL
        # optimum: x=4.5 not allowed; integral optimum x=4,y=3 -> 11
        assert result.objective == pytest.approx(11.0)
        assert result.value_int(x) + result.value_int(y) <= 7

    def test_infeasible_detected(self, backend):
        model = Model()
        x = model.add_integer("x", lb=0, ub=5)
        model.add(x >= 3)
        model.add(x <= 2)
        model.minimize(x)
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.status.has_solution

    def test_binary_knapsack(self, backend):
        values = [10, 13, 7, 8]
        weights = [3, 4, 2, 3]
        model = Model()
        picks = [model.add_binary(f"p{i}") for i in range(4)]
        model.add(quicksum(w * p for w, p in zip(weights, picks)) <= 6)
        model.maximize(quicksum(v * p for v, p in zip(values, picks)))
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(20.0)  # items 1 and 2 (13 + 7)

    def test_continuous_lp(self, backend):
        model = Model()
        x = model.add_continuous("x", lb=0)
        y = model.add_continuous("y", lb=0)
        model.add(x + y >= 4)
        model.add(x + 3 * y >= 6)
        model.minimize(2 * x + 3 * y)
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(9.0, abs=1e-5)

    def test_equality_constraints(self, backend):
        model = Model()
        x = model.add_integer("x", lb=0, ub=10)
        y = model.add_integer("y", lb=0, ub=10)
        model.add(x + y == 6)
        model.minimize(x - y)
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.OPTIMAL
        assert result.value_int(x) + result.value_int(y) == 6
        assert result.objective == pytest.approx(-6.0)

    def test_empty_model(self, backend):
        model = Model()
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)


class TestSolutionObject:
    def test_value_lookup_and_default(self):
        model = Model()
        x = model.add_integer("x", ub=3)
        model.maximize(x)
        result = solve(model)
        assert result.value(x) == pytest.approx(3.0)
        y = model.add_integer("y", ub=1)
        assert result.value(y, default=0.5) == 0.5
        with pytest.raises(KeyError):
            result.value(y)

    def test_gap_and_bool(self):
        result = MILPSolution(status=SolveStatus.OPTIMAL, objective=10.0, bound=10.0)
        assert result.gap == pytest.approx(0.0)
        assert bool(result)
        empty = MILPSolution(status=SolveStatus.INFEASIBLE)
        assert not bool(empty)
        assert math.isinf(empty.gap)

    def test_gap_is_relative_below_one(self):
        # SDR at mip_gap=0.05: an absolute gap of 0.002 is a 5.6% relative gap
        result = MILPSolution(
            status=SolveStatus.FEASIBLE, objective=0.03544, bound=0.03347
        )
        assert result.gap == pytest.approx(0.0556, abs=1e-4)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            solve(Model(), SolverOptions(backend="cplex"))


def _small_cover(seed: int, constant: float = 0.0) -> Model:
    """A random 14-set cover with costs 0.01-0.05: its objective is below 1."""
    rng = np.random.default_rng(seed)
    model = Model()
    picks = [model.add_binary(f"x{i}") for i in range(14)]
    costs = rng.uniform(0.01, 0.05, len(picks))
    for _ in range(10):
        members = rng.choice(len(picks), size=3, replace=False)
        model.add(quicksum(picks[i] for i in members) >= 1)
    model.minimize(quicksum(float(c) * p for c, p in zip(costs, picks)) + constant)
    return model


class TestBranchBoundGap:
    @pytest.mark.parametrize("constant", [0.0, -0.05], ids=["plain", "negative-constant"])
    def test_mip_gap_bounds_the_reported_relative_gap(self, constant):
        # the gap is MILPSolution.gap's, on the objective with its constant
        for seed in range(40):
            result = solve(
                _small_cover(seed, constant), SolverOptions(backend="branch-bound", mip_gap=0.05)
            )
            assert result.status.has_solution
            assert abs(result.objective) < 1.0
            assert result.gap <= 0.05 + 1e-9, (seed, result.gap)

    def test_runs_without_mip_gap_stay_exact(self):
        for seed in range(10):
            exact = solve(_small_cover(seed), SolverOptions(backend="branch-bound"))
            highs = solve(_small_cover(seed), SolverOptions(backend="highs"))
            assert exact.status is SolveStatus.OPTIMAL
            assert exact.objective == pytest.approx(highs.objective, abs=1e-9)


def _mixed_model() -> Model:
    """Integer and fixed continuous variables, a duplicate and a slack row."""
    model = Model("mixed")
    x = model.add_integer("x", lb=0, ub=10)
    y = model.add_integer("y", lb=0, ub=10)
    z = model.add_continuous("z", lb=2, ub=2)
    model.add(x <= 7.5, name="singleton")
    model.add(x + y <= 12, name="pair")
    model.add(x + y <= 12, name="pair_dup")
    model.add(x + y <= 100, name="slack")
    model.add(x + y + z >= 3, name="with_fixed")
    model.minimize(-2 * x - y + z)
    return model


class TestSharedGlue:
    def test_split_matrix_form_blocks(self):
        model = Model()
        x = model.add_continuous("x", lb=0, ub=4)
        y = model.add_continuous("y", lb=0, ub=4)
        model.add(x + y <= 5)
        model.add(x - y >= -2)
        model.add(x + 2 * y == 3)
        split = split_matrix_form(model.to_matrix_form())
        assert split.a_ub.shape == (2, 2)
        assert split.a_eq.shape == (1, 2)
        assert np.allclose(split.b_ub, [5.0, 2.0])
        assert np.allclose(split.b_eq, [3.0])

    def test_sparse_lowering_matches_a_dense_assembly(self):
        model = _mixed_model()
        form = model.to_matrix_form()
        assert sparse.issparse(form.constraint_matrix)
        dense = np.zeros((len(model.constraints), len(model.variables)))
        lb = np.full(len(model.constraints), -np.inf)
        ub = np.full(len(model.constraints), np.inf)
        for row, constraint in enumerate(model.constraints):
            for var, coef in constraint.lhs.terms.items():
                dense[row, var.index] += coef
            if constraint.sense is not Sense.GE:
                ub[row] = constraint.rhs
            if constraint.sense is not Sense.LE:
                lb[row] = constraint.rhs
        assert np.array_equal(form.constraint_matrix.toarray(), dense)
        assert np.array_equal(form.constraint_lb, lb)
        assert np.array_equal(form.constraint_ub, ub)
        assert list(form.integrality) == [int(v.is_integral) for v in model.variables]

    def test_prepare_model_charges_time_budget(self):
        from repro.milp.branch_bound import solve_with_branch_bound
        from repro.milp.scipy_backend import solve_with_scipy

        model = _mixed_model()
        for backend in (solve_with_branch_bound, solve_with_scipy):
            result = backend(model, time_limit=0.0)
            assert result.status is SolveStatus.TIME_LIMIT
            assert "during lowering" in result.message

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fixed_variable_violating_a_row_is_infeasible(self, backend):
        model = Model()
        x = model.add_integer("x", lb=4, ub=4)
        model.add(x <= 3)
        model.minimize(x)
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_variables_fixed_is_optimal(self, backend):
        model = Model()
        x = model.add_integer("x", lb=4, ub=4)
        y = model.add_continuous("y", lb=1.5, ub=1.5)
        model.add(x + y <= 6)
        model.minimize(x + 2 * y)
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(7.0)
        assert result.values[x] == 4.0
        assert result.values[y] == pytest.approx(1.5)

    def test_presolve_field_stays_in_the_fingerprinted_dict(self):
        # job fingerprints hash as_dict(), so the ignored field must stay in it
        options = SolverOptions(presolve=False)
        assert options.as_dict()["presolve"] is False
        assert SolverOptions().as_dict()["presolve"] is True
        assert SolverOptions.from_dict(options.as_dict()) == options

    def test_prepare_model_compatibility_names(self):
        model = _mixed_model()
        plain = prepare_model(model)
        flagged = prepare_model(model, run_presolve=False)
        assert plain.stats is None and flagged.stats is None
        assert plain.shortcut is None and flagged.shortcut is None
        assert np.allclose(
            plain.form.constraint_matrix.toarray(), flagged.form.constraint_matrix.toarray()
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestDirectSolveEdgeCases:
    """Structures the backends now meet unreduced, solved end to end."""

    def test_mixed_model_keeps_fixed_values_exact(self, backend):
        model = _mixed_model()
        result = solve(model, SolverOptions(backend=backend))
        assert result.status is SolveStatus.OPTIMAL
        # x <= 7.5 caps the integer x at 7, the pair row leaves y = 5
        assert result.objective == pytest.approx(-2 * 7 - 5 + 2)
        assert len(result.values) == 3
        assert result.value(model.variable_by_name("z")) == pytest.approx(2.0)
        assert model.check_assignment(result.values) == []
        assert result.gap == pytest.approx(0.0, abs=1e-9)

    def test_fractional_integer_bounds_round_inward(self, backend):
        model = Model()
        x = model.add_integer("x", lb=0.4, ub=8.7)
        model.minimize(x)
        low = solve(model, SolverOptions(backend=backend))
        model.maximize(x)
        high = solve(model, SolverOptions(backend=backend))
        assert low.status is high.status is SolveStatus.OPTIMAL
        assert low.values[x] == 1.0
        assert high.values[x] == 8.0

    def test_contradictory_rows_on_one_variable_are_infeasible(self, backend):
        model = Model()
        x = model.add_integer("x", lb=0, ub=5)
        model.add(x >= 3)
        model.add(x <= 2)
        model.minimize(x)
        assert solve(model, SolverOptions(backend=backend)).status is SolveStatus.INFEASIBLE

    def test_parallel_rows_with_empty_intersection_are_infeasible(self, backend):
        model = Model()
        x = model.add_continuous("x", lb=0, ub=10)
        y = model.add_continuous("y", lb=0, ub=10)
        model.add(x + y <= 3)
        model.add(x + y >= 8)
        model.minimize(x)
        assert solve(model, SolverOptions(backend=backend)).status is SolveStatus.INFEASIBLE

    def test_presolve_option_is_ignored(self, backend):
        model = _mixed_model()
        on = solve(model, SolverOptions(backend=backend, presolve=True))
        off = solve(model, SolverOptions(backend=backend, presolve=False))
        assert on.status is off.status is SolveStatus.OPTIMAL
        assert on.objective == off.objective
        assert on.values == off.values

    def test_lowering_is_recorded_as_a_stage(self, backend):
        with collect_stages() as stages:
            solve(_mixed_model(), SolverOptions(backend=backend))
            solve(Model(), SolverOptions(backend=backend))
        lowered = [stage for stage in stages if stage["name"] == "milp.lower"]
        assert [stage["shortcut"] for stage in lowered] == [False, True]
        assert not any("presolve" in str(stage["name"]) for stage in stages)
