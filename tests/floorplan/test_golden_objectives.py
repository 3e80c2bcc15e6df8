"""Golden optimal objectives of the serving benchmark's miss instances.

The five instances are rebuilt from :mod:`repro.workloads` and solved in HO
mode with the paper-default weights.  Their optimal objectives and wasted
frames were recorded with the occupancy-grid formulation the
candidate-rectangle model replaced; both models, and both MILP backends, must
agree on them.  The candidate counts before and after the candidate filters
are pinned for two reference instances as well.
"""

import pytest

from repro.bench import scenarios
from repro.device.catalog import synthetic_device
from repro.floorplan import FloorplanSolver
from repro.milp import SolveStatus, SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.workloads.sdr import sdr_problem
from repro.workloads.synthetic import SyntheticWorkloadConfig, synthetic_problem


def _synthetic(width, height, regions, utilization, seed):
    config = SyntheticWorkloadConfig(num_regions=regions, utilization=utilization, seed=seed)
    return synthetic_problem(
        synthetic_device(width, height), config,
        name=f"syn{width}x{height}-{regions}r-u{utilization}-s{seed}",
    )


GOLDEN = [
    pytest.param(sdr_problem, None, 0.034306355, 154, id="sdr"),
    pytest.param(lambda: _synthetic(16, 8, 2, 0.8, 0), None, 0.128996212, 508, id="syn16x8"),
    pytest.param(lambda: _synthetic(12, 5, 4, 0.5, 0), None, 0.028298115, 28, id="syn12x5"),
    pytest.param(
        lambda: _synthetic(12, 5, 3, 0.2, 0), {"R0": 1}, 0.010294118, 0, id="syn12x5-reloc"
    ),
    pytest.param(lambda: _synthetic(24, 8, 2, 0.7, 1), None, 0.123194782, 740, id="syn24x8"),
]


@pytest.mark.parametrize(
    "build, relocation, objective, wasted, backend",
    [pytest.param(*case.values, "highs", id=case.id) for case in GOLDEN]
    + [
        pytest.param(*case.values, "branch-bound", id=f"{case.id}-branch-bound")
        for case in GOLDEN
    ],
)
def test_miss_instance_optimum(build, relocation, objective, wasted, backend):
    spec = RelocationSpec.as_constraint(relocation) if relocation else None
    report = FloorplanSolver(
        build(), relocation=spec, mode="HO",
        options=SolverOptions(time_limit=60, backend=backend),
    ).solve()
    assert report.solution.status is SolveStatus.OPTIMAL
    assert report.solution.objective == pytest.approx(objective, abs=1e-9)
    assert report.metrics.wasted_frames == wasted
    assert report.verification.is_feasible


@pytest.mark.parametrize(
    "build, mode, enumerated, kept",
    [
        pytest.param(lambda: scenarios.scaling_problem(33), "O", 31_012, 348, id="scale-33-O"),
        pytest.param(sdr_problem, "HO", 19_375, 873, id="sdr-HO"),
    ],
)
def test_incumbent_filter_counts(build, mode, enumerated, kept):
    milp = FloorplanSolver(build(), mode=mode).build()
    assert (milp.enumerated, milp.kept) == (enumerated, kept)
