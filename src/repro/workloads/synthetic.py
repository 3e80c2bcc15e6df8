"""Synthetic workload generator for the scaling benchmarks and examples.

The generator produces floorplanning instances whose aggregate demand is a
configurable fraction of the device capacity, with per-region requirements
drawn from a seeded random generator so that runs are reproducible.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Sequence

import numpy as np

from repro.device.catalog import synthetic_device
from repro.device.grid import FPGADevice
from repro.device.resources import ResourceType, ResourceVector
from repro.floorplan.problem import Connection, FloorplanProblem, Region

# Probability that a region also requires BRAM / DSP tiles.
BRAM_FRACTION = 0.4
DSP_FRACTION = 0.3
# Weight of each generated bus between consecutive regions.
BUS_WIDTH = 32.0


@dataclasses.dataclass
class SyntheticWorkloadConfig:
    """Parameters of a synthetic instance.

    Attributes
    ----------
    num_regions:
        Number of reconfigurable regions to generate.
    utilization:
        Target fraction of the device's usable CLB tiles demanded in total.
    seed:
        RNG seed (all randomness flows through it).
    """

    num_regions: int = 5
    utilization: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_regions <= 0:
            raise ValueError("num_regions must be positive")
        if not 0 < self.utilization <= 0.95:
            raise ValueError("utilization must be in (0, 0.95]")


def config_grid(
    num_regions: Sequence[int] = (3, 5),
    utilizations: Sequence[float] = (0.5,),
    seeds: Sequence[int] = (0,),
) -> List[SyntheticWorkloadConfig]:
    """Cross parameter axes into a grid of workload configs.

    The cartesian product ``num_regions x utilizations x seeds`` is returned
    in deterministic (itertools.product) order.  The scenario-sweep driver
    (:mod:`repro.service.sweep`) crosses these configs with devices and
    relocation specs into solve-job grids.
    """
    return [
        SyntheticWorkloadConfig(num_regions=regions, utilization=utilization, seed=seed)
        for regions, utilization, seed in itertools.product(
            num_regions, utilizations, seeds
        )
    ]


def synthetic_problem(
    device: FPGADevice | None = None,
    config: SyntheticWorkloadConfig | None = None,
    name: Optional[str] = None,
) -> FloorplanProblem:
    """Generate a synthetic floorplanning instance.

    The per-region CLB demand is drawn from a Dirichlet split of the total
    budget so that regions have realistically unequal sizes; BRAM/DSP demands
    are added to a random subset of regions, capped by device capacity.
    """
    config = config or SyntheticWorkloadConfig()
    device = device or synthetic_device(24, 8, name="synthetic-workload-device")
    rng = np.random.default_rng(config.seed)

    capacity = device.total_resources()
    clb_budget = int(capacity.get(ResourceType.CLB) * config.utilization)
    clb_budget = max(clb_budget, config.num_regions)  # at least one tile each

    shares = rng.dirichlet(np.full(config.num_regions, 2.0))
    clb_demands = np.maximum(1, np.floor(shares * clb_budget).astype(int))

    bram_capacity = capacity.get(ResourceType.BRAM)
    dsp_capacity = capacity.get(ResourceType.DSP)
    bram_left = int(bram_capacity * config.utilization)
    dsp_left = int(dsp_capacity * config.utilization)

    regions: List[Region] = []
    for index in range(config.num_regions):
        requirement = {ResourceType.CLB: int(clb_demands[index])}
        if bram_left > 0 and rng.random() < BRAM_FRACTION:
            amount = int(rng.integers(1, max(2, bram_left // 2 + 1)))
            amount = min(amount, bram_left)
            requirement[ResourceType.BRAM] = amount
            bram_left -= amount
        if dsp_left > 0 and rng.random() < DSP_FRACTION:
            amount = int(rng.integers(1, max(2, dsp_left // 2 + 1)))
            amount = min(amount, dsp_left)
            requirement[ResourceType.DSP] = amount
            dsp_left -= amount
        regions.append(
            Region(name=f"R{index}", requirements=ResourceVector(requirement))
        )

    # consecutive regions share a bus, mirroring the SDR chain topology
    connections = [
        Connection(source=a.name, target=b.name, weight=BUS_WIDTH)
        for a, b in zip(regions, regions[1:])
    ]

    return FloorplanProblem(
        device=device,
        regions=regions,
        connections=connections,
        name=name or f"synthetic-{config.num_regions}r-seed{config.seed}",
    )
