"""Scenario sweeps: cross devices x workloads x relocation specs into jobs.

A sweep expands a grid of scenarios into a concrete
:class:`~repro.service.jobs.SolveJob` list; each job is then one
:func:`~repro.service.executor.execute_job` call.  Problems are built once per
``(device, workload config)`` cell and shared by every relocation/mode
variant, so the expensive part of the cross product — device construction and
synthetic generation — is not repeated.

Relocation entries may be concrete :class:`~repro.relocation.spec.RelocationSpec`
objects, ``None`` (no relocation), or callables ``problem -> spec`` for specs
that must reference the generated region names (see :func:`constraint_for`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.device.grid import FPGADevice
from repro.floorplan.metrics import ObjectiveWeights
from repro.floorplan.problem import FloorplanProblem
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.service.jobs import SolveJob
from repro.workloads.synthetic import SyntheticWorkloadConfig, synthetic_problem

RelocationEntry = Union[
    None, RelocationSpec, Callable[[FloorplanProblem], Optional[RelocationSpec]]
]


def constraint_for(
    regions: int = 1, copies: int = 1, hard: bool = True
) -> Callable[[FloorplanProblem], RelocationSpec]:
    """A relocation-entry factory for synthetic sweeps.

    Returns a callable that requests ``copies`` free-compatible areas for the
    first ``regions`` (smallest-index) regions of whatever problem it is given
    — synthetic region names are generated, so specs cannot be written down
    up front.
    """

    def build(problem: FloorplanProblem) -> RelocationSpec:
        chosen = problem.region_names[:regions]
        mapping = {name: copies for name in chosen}
        if hard:
            return RelocationSpec.as_constraint(mapping)
        return RelocationSpec.as_metric(mapping)

    return build


def sweep_jobs(
    devices: Sequence[FPGADevice],
    configs: Sequence[SyntheticWorkloadConfig],
    relocations: Sequence[RelocationEntry] = (None,),
    modes: Sequence[str] = ("HO",),
    options: Optional[SolverOptions] = None,
    weights: Optional[ObjectiveWeights] = None,
    heuristic: str = "tessellation",
    lexicographic: bool = False,
) -> List[SolveJob]:
    """Expand the scenario grid into a deterministic job list.

    The grid order is ``devices`` (outer) x ``configs`` x ``relocations`` x
    ``modes`` (inner), matching nested-loop reading order.
    """
    options = options or SolverOptions()
    jobs: List[SolveJob] = []
    for device in devices:
        for config in configs:
            problem = synthetic_problem(
                device=device,
                config=config,
                name=(
                    f"{device.name}-{config.num_regions}r"
                    f"-u{config.utilization:g}-s{config.seed}"
                ),
            )
            for entry in relocations:
                spec = entry(problem) if callable(entry) else entry
                for mode in modes:
                    jobs.append(
                        SolveJob(
                            problem=problem,
                            relocation=spec,
                            mode=mode,
                            options=options,
                            heuristic=heuristic,
                            weights=weights,
                            lexicographic=lexicographic,
                        )
                    )
    return jobs

