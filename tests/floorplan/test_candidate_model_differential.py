"""Differential tests: candidate-rectangle model vs the occupancy-grid oracle.

Both models are built for the same small instance, mode (O / HO), relocation
request (none / hard / soft) and backend (HiGHS / branch and bound).  They must
reach the same status and the same optimal objective, and every floorplan they
return must pass the MILP-independent verifier.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.device.catalog import synthetic_device
from repro.device.resources import ResourceVector
from repro.floorplan.ho import HOSeeder, HOSeedError
from repro.floorplan.metrics import ObjectiveWeights
from repro.floorplan.milp_builder import build_floorplan_milp
from repro.floorplan.problem import Connection, FloorplanProblem, IOPin, Region
from repro.floorplan.verify import verify_floorplan
from repro.milp import SolverOptions, solve
from repro.relocation.constraints import apply_relocation_constraints
from repro.relocation.spec import RelocationSpec
from tests.floorplan.occupancy_oracle import OccupancyMILP, apply_occupancy_relocation

OBJ_TOL = 1e-6


@st.composite
def _instances(draw):
    # pure-Python branch and bound on the occupancy oracle needs the smallest
    # devices to stay within seconds
    backend = draw(st.sampled_from(["highs", "branch-bound"]))
    exact_bb = backend == "branch-bound"
    width = draw(st.integers(4, 5 if exact_bb else 7))
    height = draw(st.integers(2, 2 if exact_bb else 3))
    device = synthetic_device(
        width, height, bram_every=draw(st.integers(2, 4)), dsp_every=draw(st.integers(3, 6)),
        name="diff-dev",
    )
    clb, bram = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    regions = [
        Region("A", ResourceVector(CLB=draw(st.integers(1, 3)))),
        Region(
            "B",
            ResourceVector(CLB=clb if clb or bram else 1, BRAM=bram),
            max_width=draw(st.one_of(st.none(), st.integers(1, 3))),
        ),
    ]
    pins = [IOPin("io", col=draw(st.integers(0, width - 1)), row=0)]
    connections = [
        Connection("A", "B", weight=draw(st.integers(1, 8))),
        Connection("B", "io", weight=draw(st.integers(0, 4)) or 1),
    ]
    try:
        problem = FloorplanProblem(device, regions, connections, pins=pins, name="diff")
    except ValueError:  # the device cannot supply the aggregate demand
        assume(False)
    relocation = draw(st.sampled_from(["none", "hard", "soft"]))
    spec = {
        "none": None,
        "hard": RelocationSpec.as_constraint({"A": 1}),
        "soft": RelocationSpec.as_metric({"A": 1 if exact_bb else 2}),
    }[relocation]
    mode = draw(st.sampled_from(["O", "HO"]))
    return problem, spec, mode, backend


def _solve_both(problem, spec, mode, backend):
    weights = ObjectiveWeights.paper_default()
    extra = spec.build_area_specs(problem) if spec is not None else []
    fixed, incumbent = None, None
    try:
        seed = HOSeeder(problem).build_seed(spec=spec)
        incumbent = seed.floorplan
        if mode == "HO":
            fixed = seed.fixed_relations()
    except HOSeedError:
        assume(mode == "O")

    candidate = build_floorplan_milp(
        problem, extra_areas=extra, fixed_relations=fixed, incumbent=incumbent, weights=weights
    )
    oracle = OccupancyMILP(problem, extra_areas=extra, fixed_relations=fixed)
    if extra:
        apply_relocation_constraints(candidate)
        apply_occupancy_relocation(oracle)
    oracle.set_objective(weights)

    options = SolverOptions(backend=backend, time_limit=120, mip_gap=0.0)
    return [
        (milp, solve(milp.model, options)) for milp in (candidate, oracle)
    ]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(_instances())
def test_candidate_model_matches_occupancy_oracle(case):
    problem, spec, mode, backend = case
    (candidate, ours), (oracle, theirs) = _solve_both(problem, spec, mode, backend)
    assert ours.status is theirs.status
    if not ours.status.has_solution:
        return
    assert ours.objective == pytest.approx(theirs.objective, abs=OBJ_TOL)
    for milp, solution in ((candidate, ours), (oracle, theirs)):
        floorplan = milp.extract(solution)
        assert floorplan.is_complete
        report = verify_floorplan(floorplan)
        assert report.is_feasible, report.violations
