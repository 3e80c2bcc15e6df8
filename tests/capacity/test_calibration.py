"""Calibration of the fleet model against the single-device engine.

:class:`~repro.capacity.fleet.FleetSimulation` serves a request in
``frames * seconds_per_frame`` without touching the bitstream machinery.  With
one device and one port it must play exactly the schedule that
:class:`~repro.sim.engine.SimulationEngine` plays with
:class:`~repro.sim.policies.ReconfigureInPlace` on the same floorplan and the
same seeded traffic, including which arrivals a full queue turns away.
"""

import pytest

from repro.capacity import DeviceProfile, FleetConfig, FleetSimulation, make_dispatcher
from repro.device.resources import ResourceVector
from repro.floorplan.geometry import Rect
from repro.floorplan.placement import Floorplan
from repro.floorplan.problem import FloorplanProblem, Region
from repro.runtime import ReconfigurationManager
from repro.sim import PoissonTraffic, ReconfigureInPlace, SimConfig, SimulationEngine

RECTS = {"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 2, 2)}
SECONDS_PER_FRAME = 1e-4  # 144 frames: ~69 requests/s per port
QUEUE_CAPACITY = 64
HORIZON = 10.0


def traffic(rate):
    return PoissonTraffic(sorted(RECTS), rate=rate, seed=11)


def schedule(stats):
    return [(r.request_id, r.start, r.finish, r.frames) for r in stats.records]


@pytest.mark.parametrize("rate", [20.0, 60.0, 200.0])  # 200 req/s overloads one port
def test_one_device_fleet_matches_the_engine(two_type_device, rate):
    problem = FloorplanProblem(
        two_type_device,
        [Region(name, ResourceVector(CLB=4)) for name in sorted(RECTS)],
        name="calibration",
    )
    engine = SimulationEngine(
        ReconfigurationManager(Floorplan.from_rects(problem, RECTS)),
        traffic=traffic(rate),
        policy=ReconfigureInPlace(),
        config=SimConfig(
            horizon=HORIZON,
            seconds_per_frame=SECONDS_PER_FRAME,
            num_ports=1,
            queue_capacity=QUEUE_CAPACITY,
        ),
    ).run()
    fleet = FleetSimulation(
        profile=DeviceProfile.from_floorplan(
            two_type_device, RECTS, seconds_per_frame=SECONDS_PER_FRAME
        ),
        num_devices=1,
        traffic=traffic(rate),
        dispatcher=make_dispatcher("least-loaded"),
        config=FleetConfig(horizon=HORIZON, queue_capacity=QUEUE_CAPACITY),
    ).run()

    assert len(engine.stats.records) > 0
    assert schedule(fleet.stats) == schedule(engine.stats)
    assert fleet.stats.rejected_arrivals == engine.stats.rejected_arrivals
    assert (fleet.stats.rejected_arrivals > 0) == (rate == 200.0)
