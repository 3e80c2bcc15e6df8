"""The HiGHS binding the backend calls, the objective offset and MIP starts.

A MIP start is a complete assignment of the model's variables.  Both backends
take a feasible start as their first incumbent, so no answer is worse than
it, and a solve that ends without a solution of its own returns it as
``FEASIBLE``.  An infeasible or incomplete start is ignored.
"""

import pytest

from repro.milp import Model, SolveStatus, SolverOptions, solve
from repro.obs.trace import collect_stages
from tests.milp.test_model_and_solvers import BACKENDS, _small_cover


def test_private_highs_binding_has_the_calls_the_backend_makes():
    from scipy.optimize._highspy import _core

    highs = _core._Highs
    for name in ("passModel", "setSolution", "getInfo", "getSolution", "getModelStatus"):
        assert callable(getattr(highs, name, None)), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_mip_gap_is_measured_on_the_objective_with_its_constant(backend):
    # without the constant as HiGHS's offset, its gap would be measured on
    # an objective 0.05 larger, and 11 of these 40 true gaps exceed mip_gap
    for seed in range(40):
        result = solve(_small_cover(seed, -0.05), SolverOptions(backend=backend, mip_gap=0.5))
        assert result.status.has_solution
        assert result.gap <= 0.5 + 1e-9, (seed, result.gap)


def _cover_and_start(seed=3):
    """A set cover and its worst feasible point: every set picked."""
    model = _small_cover(seed)
    return model, {var: 1.0 for var in model.variables}


@pytest.mark.parametrize("backend", BACKENDS)
class TestMipStart:
    def test_start_is_returned_when_the_budget_ends_during_lowering(self, backend):
        model, start = _cover_and_start()
        result = solve(model, SolverOptions(backend=backend, time_limit=0.0), start=start)
        assert result.status is SolveStatus.FEASIBLE
        assert result.values == start
        assert result.objective == pytest.approx(model.objective_value(start), abs=1e-12)
        assert "during lowering" in result.message

    @pytest.mark.parametrize("broken", ["infeasible", "incomplete"])
    def test_a_start_that_is_not_a_feasible_point_is_ignored(self, backend, broken):
        model, start = _cover_and_start()
        if broken == "infeasible":
            start = dict.fromkeys(start, 0.0)  # covers nothing
        else:
            start.pop(model.variables[0])
        result = solve(model, SolverOptions(backend=backend, time_limit=0.0), start=start)
        assert result.status is SolveStatus.TIME_LIMIT
        assert not result.values

    def test_start_changes_no_optimum_and_is_annotated(self, backend):
        for seed in range(8):
            model, start = _cover_and_start(seed)
            plain = solve(model, SolverOptions(backend=backend))
            with collect_stages() as stages:
                started = solve(model, SolverOptions(backend=backend), start=start)
            assert started.status is plain.status is SolveStatus.OPTIMAL
            assert started.objective == pytest.approx(plain.objective, abs=1e-9)
            (search,) = [stage for stage in stages if stage["name"] == "milp.search"]
            assert search["start_objective"] == pytest.approx(
                model.objective_value(start), abs=1e-12
            )

    def test_answer_is_never_worse_than_the_start(self, backend):
        model, start = _cover_and_start()
        best = solve(model, SolverOptions(backend=backend)).objective
        # a start at the optimum itself: a gap-stopped solve keeps it
        optimum = solve(model, SolverOptions(backend=backend)).values
        for given in (start, optimum):
            result = solve(model, SolverOptions(backend=backend, mip_gap=0.5), start=given)
            assert result.status.has_solution
            assert result.objective <= model.objective_value(given) + 1e-12
            assert result.objective >= best - 1e-12


@pytest.mark.parametrize("backend", BACKENDS)
def test_start_objective_is_reported_in_the_model_sense(backend):
    model = Model()
    x = model.add_integer("x", lb=0, ub=10)
    model.add(x <= 7)
    model.maximize(2 * x + 1)
    with collect_stages() as stages:
        result = solve(model, SolverOptions(backend=backend), start={x: 3.0})
    (search,) = [stage for stage in stages if stage["name"] == "milp.search"]
    assert search["start_objective"] == pytest.approx(7.0)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(15.0)


def test_highs_search_stage_reports_presolve_and_model_status():
    model, start = _cover_and_start()
    with collect_stages() as stages:
        solve(model, SolverOptions())
        solve(model, SolverOptions(), start=start)
        solve(model, SolverOptions(), start=start, presolve=False)
    plain, started, bare = [stage for stage in stages if stage["name"] == "milp.search"]
    assert (plain["presolve"], plain["start_objective"]) == ("on", None)
    assert (started["presolve"], bare["presolve"]) == ("on", "off")
    assert started["start_objective"] == bare["start_objective"] is not None
    assert plain["model_status"] == started["model_status"] == bare["model_status"] == "Optimal"


def test_branch_bound_takes_the_start_as_its_first_incumbent():
    model, start = _cover_and_start()
    # one node: the root LP alone; the incumbent can only come from the
    # start or the root heuristics, and is never worse than the start
    with collect_stages() as stages:
        result = solve(
            model, SolverOptions(backend="branch-bound", max_nodes=1), start=start
        )
    assert result.status.has_solution
    assert result.objective <= model.objective_value(start) + 1e-12
    (search,) = [stage for stage in stages if stage["name"] == "milp.search"]
    assert search["start_objective"] == pytest.approx(model.objective_value(start), abs=1e-12)

