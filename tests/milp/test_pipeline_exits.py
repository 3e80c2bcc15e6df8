"""Both backends take the same exits through the shared solve pipeline.

Every exit that is not a search (the empty-model shortcut, a budget spent
during lowering with and without a feasible start, and a start that is not a
feasible point and is ignored) must give the same :class:`MILPSolution` from
HiGHS and from branch and bound, except for ``backend`` and ``solve_time``.
"""

import dataclasses
import math

import pytest

from repro.milp import Model, SolveStatus
from repro.milp.branch_bound import solve_with_branch_bound
from repro.milp.scipy_backend import solve_with_scipy
from tests.milp.test_model_and_solvers import _small_cover


def _cover_and_start(broken=None):
    """A set cover and its worst feasible point, or that point broken."""
    model = _small_cover(3)
    start = {var: 1.0 for var in model.variables}
    if broken == "infeasible":
        start = dict.fromkeys(start, 0.0)  # covers nothing
    elif broken == "incomplete":
        start.pop(model.variables[0])
    return model, start


EXITS = {
    "empty-model": (lambda: (Model(), None), None, SolveStatus.OPTIMAL),
    "lowering-with-start": (_cover_and_start, 0.0, SolveStatus.FEASIBLE),
    "lowering-without-start": (lambda: (_small_cover(3), None), 0.0, SolveStatus.TIME_LIMIT),
    "infeasible-start-ignored": (
        lambda: _cover_and_start("infeasible"), 0.0, SolveStatus.TIME_LIMIT
    ),
    "incomplete-start-ignored": (
        lambda: _cover_and_start("incomplete"), 0.0, SolveStatus.TIME_LIMIT
    ),
}


def _exit_of(solution):
    """Every field but ``backend`` and ``solve_time``, with ``nan`` comparable."""
    return {
        field.name: "nan" if isinstance(value, float) and math.isnan(value) else value
        for field in dataclasses.fields(solution)
        if field.name not in ("backend", "solve_time")
        for value in [getattr(solution, field.name)]
    }


@pytest.mark.parametrize("name", EXITS)
def test_both_backends_take_the_same_exit(name):
    build, time_limit, status = EXITS[name]
    model, start = build()
    highs = solve_with_scipy(model, time_limit=time_limit, start=start)
    branch_bound = solve_with_branch_bound(model, time_limit=time_limit, start=start)
    assert highs.status is status
    assert (highs.backend, branch_bound.backend) == ("scipy-highs", "branch-bound")
    assert _exit_of(branch_bound) == _exit_of(highs)
