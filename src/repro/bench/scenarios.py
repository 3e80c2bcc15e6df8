"""Shared benchmark scenarios: devices, problems and floorplans.

These builders used to be duplicated across the ``benchmarks/bench_*.py``
scripts (each re-declared its own synthetic device + region mix).  They are
hoisted here so the pytest-benchmark scripts and the registered
:mod:`repro.bench.suite` micro-benchmarks measure exactly the same inputs.

Everything here is deterministic: fixed device shapes, fixed requirements,
explicit seeds.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.device.catalog import simple_two_type_device, synthetic_device
from repro.device.resources import ResourceVector
from repro.floorplan.geometry import Rect
from repro.floorplan.placement import Floorplan
from repro.floorplan.problem import Connection, FloorplanProblem, Region

__all__ = [
    "bench_time_limit",
    "small_problem",
    "scaling_problem",
    "pruning_problem",
    "relocation_problem",
    "sim_floorplan",
    "throughput_sweep_jobs",
    "server_payloads",
    "random_rect_state",
    "random_placement",
]


def bench_time_limit(default: float = 60.0) -> float:
    """Per-solve MILP time limit honoured by every benchmark scenario."""
    return float(os.environ.get("REPRO_BENCH_TIME_LIMIT", default))


def small_problem(name: str = "ablation") -> FloorplanProblem:
    """Three regions with a BRAM/DSP mix on a 12x5 synthetic device.

    The ablation workhorse: small enough for bounded MILP solves, rich enough
    to exercise every resource type and the wirelength objective.
    """
    device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name=f"{name}-dev")
    regions = [
        Region("A", ResourceVector(CLB=6)),
        Region("B", ResourceVector(CLB=3, BRAM=1)),
        Region("C", ResourceVector(CLB=2, DSP=1)),
    ]
    connections = [Connection("A", "B", weight=16), Connection("B", "C", weight=16)]
    return FloorplanProblem(device, regions, connections, name=name)


def scaling_problem(width: int, name: str | None = None) -> FloorplanProblem:
    """Three fixed regions on a device of configurable width (model scaling)."""
    name = name or f"scale-{width}"
    device = synthetic_device(width, 6, bram_every=5, dsp_every=9, name=f"{name}-dev")
    regions = [
        Region("A", ResourceVector(CLB=5)),
        Region("B", ResourceVector(CLB=3, BRAM=1)),
        Region("C", ResourceVector(CLB=2)),
    ]
    return FloorplanProblem(device, regions, name=name)


def pruning_problem(width: int = 64, name: str | None = None) -> FloorplanProblem:
    """Resource-pinned regions with tight extent caps on a wide device.

    Every region is tied to a scarce column type (DSP every 11 columns, BRAM
    every 7) with ``max_width`` caps of one or two columns, so most
    rectangles are geometrically infeasible and the candidate lists of
    :func:`repro.floorplan.milp_builder.build_floorplan_milp` stay short
    (mirroring the scarce-DSP structure of the SDR study).
    """
    name = name or f"prune-{width}"
    device = synthetic_device(width, 10, bram_every=7, dsp_every=11, name=f"{name}-dev")
    regions = [
        Region("dsp_a", ResourceVector(DSP=4), max_width=1),
        Region("dsp_b", ResourceVector(DSP=6), max_width=1),
        Region("bram_a", ResourceVector(BRAM=4), max_width=1),
        Region("bram_b", ResourceVector(BRAM=6), max_width=1),
        Region("dsp_c", ResourceVector(DSP=2), max_width=1),
    ]
    connections = [
        Connection("dsp_a", "bram_a", weight=8),
        Connection("dsp_b", "dsp_c", weight=8),
    ]
    return FloorplanProblem(device, regions, connections, name=name)


def relocation_problem(name: str = "rt") -> FloorplanProblem:
    """Two-region problem used by the bitstream-relocation flow benchmarks."""
    device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name=f"{name}-dev")
    return FloorplanProblem(
        device,
        [
            Region("filter", ResourceVector(CLB=4)),
            Region("decoder", ResourceVector(CLB=2, BRAM=1)),
        ],
        name=name,
    )


def sim_floorplan(name: str = "sim-bench") -> Floorplan:
    """Two regions with one reserved free area each, built without a solver.

    The discrete-event simulator benchmarks run on this fixed layout so the
    events/sec figure measures the event queue, policy dispatch and the
    bitstream-cache path — not MILP solve time.
    """
    device = simple_two_type_device()
    regions = [
        Region("A", ResourceVector(CLB=4)),
        Region("B", ResourceVector(CLB=4)),
    ]
    problem = FloorplanProblem(device, regions, name=name)
    return Floorplan.from_rects(
        problem,
        {"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 2, 2)},
        free_rects={"A 1": (Rect(2, 0, 2, 2), "A"), "B 1": (Rect(8, 0, 2, 2), "B")},
    )


def throughput_sweep_jobs(
    time_limit: float | None = None,
    relocation_copies: int = 1,
) -> list:
    """The 8-job device x workload x relocation grid of the service benchmarks."""
    from repro.milp import SolverOptions
    from repro.service import sweep_jobs
    from repro.service.sweep import constraint_for
    from repro.workloads.synthetic import config_grid

    device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name="throughput-dev")
    configs = config_grid(num_regions=(3, 4), utilizations=(0.45,), seeds=(0, 1))
    options = SolverOptions(
        time_limit=time_limit if time_limit is not None else bench_time_limit(30.0),
        mip_gap=0.05,
    )
    return sweep_jobs(
        [device],
        configs,
        relocations=(None, constraint_for(regions=1, copies=relocation_copies)),
        modes=("HO",),
        options=options,
    )


def server_payloads(unique: int = 4, heavy: bool = False) -> list:
    """Request bodies for the serving benchmarks (``server.*``, ``fleet.*``,
    ``obs.*``, ``resilience.*``).

    Small two-region instances with distinct fingerprints (the connection
    weight varies), each solving in a few hundred milliseconds.
    ``heavy=True`` switches to slower three-region instances for the fleet
    benchmarks, where the solve must dominate multi-process coordination
    overhead for work-collapse margins to be attributable.
    """
    from repro.server.loadgen import demo_payloads

    return demo_payloads(unique=unique, time_limit=bench_time_limit(20.0), heavy=heavy)


def random_rect_state(
    problem: FloorplanProblem, seed: int = 0
) -> Dict[str, Rect]:
    """A random (likely infeasible) rectangle per region — annealing input."""
    import numpy as np

    rng = np.random.default_rng(seed)
    device = problem.device
    state: Dict[str, Rect] = {}
    for region in problem.regions:
        width = int(rng.integers(1, max(2, device.width // 2)))
        height = int(rng.integers(1, max(2, device.height // 2)))
        col = int(rng.integers(0, device.width - width + 1))
        row = int(rng.integers(0, device.height - height + 1))
        state[region.name] = Rect(col, row, width, height)
    return state


def random_placement(
    num_rects: int, seed: int = 0, grid: int = 1000
) -> Dict[str, Rect]:
    """A dense non-overlapping placement of ``num_rects`` rectangles.

    Rectangles are laid out in randomly-sized rows of randomly-sized cells
    with random gaps, producing a mix of forced (overlapping-span) and
    "diagonal" pairs — the stress input for sequence-pair extraction.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    rects: Dict[str, Rect] = {}
    row_base = 0
    index = 0
    while index < num_rects:
        row_height = int(rng.integers(2, 6))
        col = int(rng.integers(0, 3))
        while index < num_rects and col < grid:
            width = int(rng.integers(1, 6))
            height = int(rng.integers(1, row_height + 1))
            if col + width > grid:
                break
            rects[f"r{index:04d}"] = Rect(col, row_base, width, height)
            col += width + int(rng.integers(0, 4))
            index += 1
        row_base += row_height + int(rng.integers(0, 3))
    return rects
