"""Property test: the flat fleet loop against its event-queue oracle.

:meth:`~repro.capacity.fleet.FleetSimulation.run` must play exactly the
schedule of the handler-per-kind loop it replaced
(:mod:`tests.capacity.fleet_oracle`) on small random fleets: every
combination of dispatcher, queue capacity and faults on/off, 1–6 devices
with 1–2 ports, at rates that make bounded queues shed.  Half the cases put
every arrival, service, fault and repair on a 0.25 s grid, so events of
every kind tie on one instant and the same-instant priorities decide the
order.
"""

import itertools
import random

import pytest

from repro.capacity import DeviceProfile, FleetConfig, FleetSimulation, make_dispatcher
from repro.capacity.dispatch import dispatcher_names
from repro.sim import PoissonTraffic, RandomFaults, ScheduledFaults
from repro.sim.traffic import ModeRequest, TrafficModel
from tests.capacity.fleet_oracle import OracleFleetSimulation

REGIONS = ("A", "B", "C")
GRID = 0.25  # exact in binary: grid sums tie exactly
HORIZON = 6.0


class GridTraffic(TrafficModel):
    """Seeded arrivals on the :data:`GRID`, several per instant."""

    def __init__(self, rate: float, seed: int) -> None:
        self.rate = rate
        self.seed = seed

    def generate(self, horizon):
        rng = random.Random(self.seed)
        slots = int(horizon / GRID)
        times = sorted(rng.randrange(slots) * GRID for _ in range(int(self.rate * horizon)))
        return [
            ModeRequest(time, rng.choice(REGIONS), f"mode{rng.randint(1, 3)}")
            for time in times
        ]


def build(cls, case: int, dispatcher: str, queue_capacity, faults: bool, grid: bool):
    rng = random.Random(case)
    num_devices = rng.randint(1, 6)
    num_ports = rng.randint(1, 2)
    # 3-13 frames of 1/16 s is 0.19-0.81 s of service; on the grid, multiples
    # of 4 frames land every completion on a grid instant
    frames = {region: rng.choice((4, 8, 12)) if grid else rng.randint(3, 13)
              for region in REGIONS}
    profile = DeviceProfile("dev", frames, seconds_per_frame=1 / 16, num_ports=num_ports)
    # up to ~3x what the fleet can serve, so full queues shed at the door
    rate = rng.uniform(0.5, 3.0) * num_devices * num_ports / 0.5
    names = [f"dev-{index:03d}" for index in range(num_devices)]
    plans = {}
    if faults:
        for index, name in enumerate(names):
            if grid:
                slots = rng.sample(range(int(HORIZON / GRID)), rng.randint(0, 4))
                plans[name] = ScheduledFaults([(slot * GRID, name) for slot in slots])
            else:
                plans[name] = RandomFaults([name], rate=0.4, seed=case * 10 + index)
    traffic = (
        GridTraffic(rate, seed=case) if grid
        else PoissonTraffic(list(REGIONS), rate=rate, seed=case)
    )
    return cls(
        profile=profile,
        num_devices=num_devices,
        traffic=traffic,
        dispatcher=make_dispatcher(dispatcher),
        fault_plans=plans,
        config=FleetConfig(
            horizon=HORIZON,
            queue_capacity=queue_capacity,
            repair_time=rng.choice((0.5, 1.0, 1.75)),
        ),
    )


def observed(result):
    """Everything a fleet run decides, device by device."""
    return {
        "records": {
            name: [(r.request_id, r.start, r.finish, r.frames, r.detail) for r in stats.records]
            for name, stats in result.per_device.items()
        },
        "fault_times": {name: stats.fault_times for name, stats in result.per_device.items()},
        "rejected_arrivals": result.stats.rejected_arrivals,
        "downtime": result.downtime,
        "offered": result.offered,
        "events_processed": result.events_processed,
        "makespan": result.makespan,
    }


CASES = [
    (case, dispatcher, capacity, faults, grid)
    for case, (dispatcher, capacity, faults, grid) in enumerate(
        axes
        for _repeat in range(3)
        for axes in itertools.product(dispatcher_names(), (0, 2, None), (False, True), (False, True))
    )
]


@pytest.mark.parametrize("case,dispatcher,queue_capacity,faults,grid", CASES)
def test_flat_loop_matches_the_event_queue_oracle(case, dispatcher, queue_capacity, faults, grid):
    args = (case, dispatcher, queue_capacity, faults, grid)
    expected = observed(build(OracleFleetSimulation, *args).run())
    assert observed(build(FleetSimulation, *args).run()) == expected


def test_the_cases_shed_and_fault():
    """The random fleets reach the states the differential test is for."""
    shed = faulted = 0
    for args in CASES:
        result = build(FleetSimulation, *args).run()
        shed += result.stats.rejected_arrivals > 0
        faulted += bool(result.downtime)
    assert shed >= len(CASES) // 4
    assert faulted >= len(CASES) // 4
