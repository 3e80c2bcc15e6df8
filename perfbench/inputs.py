"""Seeded request generator for the serving workloads.

The benchmark process builds every request body here from the workload seed
and sends only the encoded bodies; the fleet never sees the seed.

Miss jobs come from a fixed, vetted template cycle.  Each template solves to
optimality well inside its time limit on the parent commit, so objectives
repeat exactly from run to run.  The paper's SDR2/SDR3 instances are not in
the cycle: both hit a 20 s limit (HO mode with sdr2/sdr3 hard and soft), so
their objectives would depend on machine speed.

Every miss job is first-seen: its bus weights are the template's weights
scaled up by a seeded power of two.  That changes the job fingerprint but not
the solver's work, because eq. 14 normalises wirelength by the total
connection weight and power-of-two scaling is exact in floating point.  Each
run therefore solves the same models, which keeps the miss figures steady
across seeds while the cache is always bypassed.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Callable, Dict, List, Optional

from repro.device.catalog import synthetic_device, virtex5_fx70t_like
from repro.device.resources import ResourceVector
from repro.floorplan.problem import Connection, FloorplanProblem, Region
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.server.protocol import job_to_dict
from repro.service.jobs import SolveJob
from repro.workloads.sdr import sdr_problem
from repro.workloads.synthetic import SyntheticWorkloadConfig, synthetic_problem

#: Miss-template time limit; every template proves optimality far below it.
TIME_LIMIT = 30.0
#: Zipf exponent of the hit catalog.
ZIPF_S = 1.0
PAPER_SCALE = (33, 8)


@dataclasses.dataclass(frozen=True)
class Template:
    name: str
    build: Callable[[], FloorplanProblem]
    relocation: Optional[Dict[str, int]] = None
    mip_gap: Optional[float] = None


def _synthetic(width: int, height: int, regions: int, utilization: float, seed: int):
    def build() -> FloorplanProblem:
        config = SyntheticWorkloadConfig(
            num_regions=regions, utilization=utilization, seed=seed
        )
        return synthetic_problem(
            synthetic_device(width, height), config,
            name=f"syn{width}x{height}-{regions}r-u{utilization}-s{seed}",
        )
    return build


def _paper_scale_synthetic(utilization: float, seed: int):
    def build() -> FloorplanProblem:
        config = SyntheticWorkloadConfig(num_regions=2, utilization=utilization, seed=seed)
        return synthetic_problem(
            virtex5_fx70t_like(), config, name=f"v5-2r-u{utilization}-s{seed}"
        )
    return build


def _tiny() -> FloorplanProblem:
    device = synthetic_device(10, 4, bram_every=4, dsp_every=7, name="tiny")
    regions = [Region("A", ResourceVector(CLB=3)), Region("B", ResourceVector(CLB=2, BRAM=1))]
    return FloorplanProblem(device, regions, [Connection("A", "B", weight=4.0)], name="tiny")


def _tiny_three() -> FloorplanProblem:
    device = synthetic_device(10, 4, bram_every=4, dsp_every=7, name="tiny3")
    regions = [
        Region("A", ResourceVector(CLB=2)),
        Region("B", ResourceVector(CLB=1, BRAM=1)),
        Region("C", ResourceVector(CLB=2)),
    ]
    connections = [Connection("A", "B", weight=4.0), Connection("B", "C", weight=2.0)]
    return FloorplanProblem(device, regions, connections, name="tiny3")


#: The miss cycle: the seed-heavy SDR instance (HO seeding is a quarter of
#: its solve) plus search-heavy synthetic instances on 16x8, 12x5 and 24x8
#: devices, one with a hard relocation request.  Single-threaded solve times
#: on a 2-core x86 box: 0.25, 0.7, 1.2, 2.2 and 4.2 s.  The five are spaced
#: about 2x apart, so with two or more whole cycles per run the median
#: always falls on the third template's cluster and p90 on the SDR cluster,
#: never between two clusters.
MISS_TEMPLATES: List[Template] = [
    Template("sdr", sdr_problem),
    Template("syn16x8", _synthetic(16, 8, 2, 0.8, 0)),
    Template("syn12x5", _synthetic(12, 5, 4, 0.5, 0)),
    Template("syn12x5-reloc", _synthetic(12, 5, 3, 0.2, 0), relocation={"R0": 1}),
    Template("syn24x8", _synthetic(24, 8, 2, 0.7, 1)),
]

#: The hit catalog, in Zipf rank order: paper-scale (33x8) bodies on odd
#: ranks, small bodies on even ranks, so the paper-scale share of the traffic
#: does not depend on the seed.
CATALOG_TEMPLATES: List[Template] = [
    Template("v5-a", _paper_scale_synthetic(0.05, 2), mip_gap=0.1),
    Template("tiny", _tiny, mip_gap=0.1),
    Template("v5-b", _paper_scale_synthetic(0.1, 2), mip_gap=0.1),
    Template("tiny3", _tiny_three, mip_gap=0.1),
    Template("v5-a", _paper_scale_synthetic(0.05, 2), mip_gap=0.1),
    Template("tiny", _tiny, mip_gap=0.1),
    Template("v5-b", _paper_scale_synthetic(0.1, 2), mip_gap=0.1),
    Template("tiny3", _tiny_three, mip_gap=0.1),
]

WARMUP_TEMPLATE = Template("warmup", _tiny, mip_gap=0.1)


@dataclasses.dataclass
class Request:
    """One generated request: the body, its wire bytes and what it is."""

    template: str
    body: Dict[str, object]
    wire: bytes
    fingerprint: str
    paper_scale: bool
    relocation: bool
    job: SolveJob


def _scaled(problem: FloorplanProblem, exponent: int) -> FloorplanProblem:
    factor = 2.0 ** exponent
    connections = [
        Connection(c.source, c.target, weight=c.weight * factor) for c in problem.connections
    ]
    return FloorplanProblem(
        problem.device, problem.regions, connections, problem.pins, name=problem.name
    )


def make_request(template: Template, exponent: int) -> Request:
    """The template's job with its bus weights scaled by ``2**exponent``."""
    problem = _scaled(template.build(), exponent)
    relocation = (
        RelocationSpec.as_constraint(template.relocation) if template.relocation else None
    )
    job = SolveJob(
        problem,
        relocation=relocation,
        mode="HO",
        options=SolverOptions(time_limit=TIME_LIMIT, mip_gap=template.mip_gap),
    )
    body = job_to_dict(job)
    return Request(
        template=template.name,
        body=body,
        wire=json.dumps(body).encode("utf-8"),
        fingerprint=job.fingerprint,
        paper_scale=(problem.device.width, problem.device.height) == PAPER_SCALE,
        relocation=relocation is not None,
        job=job,
    )


class RequestGenerator:
    """All request bodies of one run, derived from the workload seed alone.

    Exponents are drawn without replacement per template, so no two bodies of
    one run share a fingerprint unless they are meant to (catalog repeats).
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        # up-scaling only: WLmax is clamped at 1.0, which would break the
        # exact cancellation for weights scaled below their originals
        pool = list(range(1, 601))
        self.rng.shuffle(pool)
        self._exponents = pool
        self._miss_count = 0
        self.catalog = [
            make_request(template, self._exponents.pop()) for template in CATALOG_TEMPLATES
        ]
        self.warmup = make_request(WARMUP_TEMPLATE, self._exponents.pop())
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.catalog))]
        self._zipf_cum = []
        total = 0.0
        for weight in weights:
            total += weight
            self._zipf_cum.append(total)

    @property
    def cycle_length(self) -> int:
        return len(MISS_TEMPLATES)

    def next_miss(self) -> Request:
        """The next first-seen job of the template cycle."""
        index = self._miss_count % len(MISS_TEMPLATES)
        self._miss_count += 1
        return make_request(MISS_TEMPLATES[index], self._exponents.pop())

    def next_hit(self) -> int:
        """Index into :attr:`catalog` of the next Zipf-drawn repeat."""
        point = self.rng.random() * self._zipf_cum[-1]
        for index, bound in enumerate(self._zipf_cum):
            if point < bound:
                return index
        return len(self._zipf_cum) - 1
