"""Tests of the multi-device fleet simulation."""

import pytest

from repro.capacity import (
    DeviceProfile,
    FleetConfig,
    FleetSimulation,
    make_dispatcher,
)
from repro.sim import PoissonTraffic, RandomFaults, ScheduledFaults


def profile(seconds_per_frame=1e-3, num_ports=1):
    return DeviceProfile(
        name="dev",
        frame_counts={"A": 100, "B": 150},
        seconds_per_frame=seconds_per_frame,
        num_ports=num_ports,
    )


def simulation(num_devices=4, rate=20.0, horizon=30.0, seed=0, **kwargs):
    return FleetSimulation(
        profile=profile(),
        num_devices=num_devices,
        traffic=PoissonTraffic(["A", "B"], rate=rate, seed=seed),
        dispatcher=make_dispatcher(kwargs.pop("dispatcher", "least-loaded")),
        config=FleetConfig(horizon=horizon, **kwargs.pop("config", {})),
        **kwargs,
    )


class TestDeviceProfile:
    def test_service_time_from_frames(self):
        assert profile().service_time("A") == pytest.approx(0.1)
        assert profile().service_time("B") == pytest.approx(0.15)
        assert profile().regions() == ["A", "B"]

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", {})
        with pytest.raises(ValueError):
            DeviceProfile("bad", {"A": 1}, seconds_per_frame=0.0)
        with pytest.raises(ValueError):
            DeviceProfile("bad", {"A": 1}, num_ports=0)

    def test_from_floorplan_uses_frame_counts(self, two_type_device):
        from repro.floorplan import Rect
        from repro.floorplan.placement import rect_frames

        rects = {"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 2, 2)}
        built = DeviceProfile.from_floorplan(two_type_device, rects)
        for region, rect in rects.items():
            assert built.frame_counts[region] == rect_frames(two_type_device, rect)


class TestFleetSimulation:
    def test_every_offered_request_is_accounted_for(self):
        result = simulation().run()
        assert result.offered > 0
        served = len(result.stats.served)
        blocked = len(result.stats.blocked) + result.stats.rejected_arrivals
        assert served + blocked == result.offered

    def test_deterministic_across_runs(self):
        first = simulation().run()
        second = simulation().run()
        assert first.metrics() == second.metrics()
        assert first.events_processed == second.events_processed
        assert [r.request_id for r in first.stats.records] == [
            r.request_id for r in second.stats.records
        ]

    def test_per_device_stats_merge_into_rollup(self):
        result = simulation().run()
        assert sum(len(stats) for stats in result.per_device.values()) == len(
            result.stats
        )
        assert set(result.per_device) == {f"dev-{i:03d}" for i in range(4)}

    def test_more_devices_do_not_hurt_p99(self):
        small = simulation(num_devices=1, rate=15.0).run()
        large = simulation(num_devices=8, rate=15.0).run()
        assert (
            large.metrics()["p99_latency_s"] <= small.metrics()["p99_latency_s"]
        )

    def test_overload_sheds_with_bounded_queues(self):
        # one device, tiny queue, heavy traffic: shedding must kick in
        result = simulation(
            num_devices=1, rate=50.0, config={"queue_capacity": 2}
        ).run()
        assert result.stats.rejected_arrivals > 0
        assert result.metrics()["blocking_probability"] > 0.0

    def test_fault_and_repair_cycle_records_downtime(self):
        plans = {"dev-000": ScheduledFaults([(5.0, "dev-000")])}
        result = simulation(
            num_devices=2, rate=5.0, fault_plans=plans, config={"repair_time": 3.0}
        ).run()
        assert result.downtime == {"dev-000": pytest.approx(3.0)}
        assert result.stats.fault_times == [5.0]
        # the fleet keeps serving through the fault window
        assert result.metrics()["throughput_fraction"] > 0.9

    def test_fault_on_a_down_device_does_not_repair_a_later_outage(self):
        # the 1.5 s fault lands on a down device; it must not queue a second
        # repair, which would end the outage that starts at 3.0 s at 3.5 s
        plans = {
            "dev-000": ScheduledFaults(
                [(0.5, "dev-000"), (1.5, "dev-000"), (3.0, "dev-000")]
            )
        }
        result = simulation(
            num_devices=1, rate=5.0, fault_plans=plans, config={"repair_time": 2.0}
        ).run()
        # down 0.5 -> 2.5 and 3.0 -> 5.0
        assert result.downtime == {"dev-000": pytest.approx(4.0)}
        assert result.stats.fault_times == [0.5, 3.0]
        assert not [r for r in result.stats.records if 3.0 < r.start < 5.0]

    def test_random_fault_plans_are_deterministic(self):
        def build():
            return simulation(
                num_devices=3,
                rate=10.0,
                fault_plans={
                    f"dev-{i:03d}": RandomFaults([f"dev-{i:03d}"], rate=0.05, seed=i)
                    for i in range(3)
                },
            ).run()

        assert build().metrics() == build().metrics()

    def test_down_device_receives_no_new_starts(self):
        # device 0 is down from t=1 until t=101, past the 10 s horizon: no
        # service may start on it inside the outage window (anything queued
        # before the fault drains only after the repair)
        plans = {"dev-000": ScheduledFaults([(1.0, "dev-000")])}
        result = simulation(
            num_devices=2,
            rate=5.0,
            horizon=10.0,
            fault_plans=plans,
            config={"repair_time": 100.0},
        ).run()
        in_outage = [
            record
            for record in result.per_device["dev-000"].records
            if 1.0 < record.start < 101.0
        ]
        assert in_outage == []

    def test_validation(self):
        with pytest.raises(ValueError):
            simulation(num_devices=0)
        with pytest.raises(ValueError):
            FleetConfig(horizon=0.0)
        with pytest.raises(ValueError):
            FleetConfig(repair_time=0.0)
