"""Tests of the fleet dispatchers."""

import math

import pytest

from repro.capacity import (
    ConsistentHash,
    LeastLoaded,
    RoundRobin,
    dispatcher_names,
    make_dispatcher,
)
from repro.sim.traffic import ModeRequest


class FakeDevice:
    def __init__(self, index, name, load=0, accepting=True, limit=math.inf):
        self.index = index
        self.name = name
        self.load = load
        self.accepting = accepting
        self.limit = limit

    @property
    def up(self):
        return self.accepting

    def can_accept(self):
        return self.accepting and self.load < self.limit


def request(region="A"):
    return ModeRequest(time=0.0, region=region, mode="mode1")


def fleet(count=4, **kwargs):
    return [FakeDevice(i, f"dev-{i:03d}", **kwargs) for i in range(count)]


class TestRoundRobin:
    def test_cycles_through_devices(self):
        devices = fleet(3)
        rr = RoundRobin()
        picks = [rr.assign(request(), devices).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_unavailable(self):
        devices = fleet(3)
        devices[1].accepting = False
        rr = RoundRobin()
        picks = [rr.assign(request(), devices).index for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_none_when_all_full(self):
        devices = fleet(2, accepting=False)
        assert RoundRobin().assign(request(), devices) is None


class TestLeastLoaded:
    def test_picks_minimum_load(self):
        devices = fleet(3)
        devices[0].load = 5
        devices[1].load = 2
        devices[2].load = 7
        assert LeastLoaded().assign(request(), devices).index == 1

    def test_index_breaks_ties(self):
        devices = fleet(3, load=1)
        assert LeastLoaded().assign(request(), devices).index == 0

    def test_ignores_unavailable(self):
        devices = fleet(2)
        devices[0].load = 0
        devices[0].accepting = False
        devices[1].load = 9
        assert LeastLoaded().assign(request(), devices).index == 1

    def test_skips_full_devices(self):
        devices = fleet(3, limit=4)
        devices[0].load = 4
        devices[1].load = 3
        devices[2].load = 4
        assert LeastLoaded().assign(request(), devices).index == 1
        devices[1].load = 4
        assert LeastLoaded().assign(request(), devices) is None


class TestConsistentHash:
    def test_region_affinity_is_stable(self):
        devices = fleet(5)
        ch = ConsistentHash()
        first = ch.assign(request("regionX"), devices)
        for _ in range(10):
            assert ch.assign(request("regionX"), devices) is first

    def test_failover_follows_ring_preference(self):
        devices = fleet(5)
        ch = ConsistentHash()
        owner = ch.assign(request("regionX"), devices)
        owner.accepting = False
        fallback = ch.assign(request("regionX"), devices)
        assert fallback is not owner
        # restoring the owner restores the original routing
        owner.accepting = True
        assert ch.assign(request("regionX"), devices) is owner

    def test_different_fleet_rebuilds_ring(self):
        ch = ConsistentHash()
        small = fleet(2)
        large = fleet(6)
        assert ch.assign(request("regionX"), small).name in {d.name for d in small}
        assert ch.assign(request("regionX"), large).name in {d.name for d in large}


class TestRegistry:
    def test_known_names_construct(self):
        for name in dispatcher_names():
            assert make_dispatcher(name) is not None

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_dispatcher("no-such-dispatcher")
