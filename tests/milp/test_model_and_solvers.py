"""Unit tests for the Model container and both MILP backends."""

import math

import numpy as np
import pytest

from repro.milp import (
    Model,
    MILPSolution,
    SolveStatus,
    SolverOptions,
    quicksum,
    solve,
)

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
