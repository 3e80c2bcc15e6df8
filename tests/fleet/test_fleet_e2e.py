"""Full-stack fleet tests: real replica subprocesses behind a real router.

One 2-replica fleet is shared by the whole module (replica start-up is the
expensive part); each test uses its own payload indices so cache state never
leaks between tests.
"""

import asyncio

import pytest

from repro.fleet import BackgroundFleet
from repro.server.loadgen import GatewayClient, demo_payloads, fetch_metrics_json
from repro.server.protocol import job_from_dict


@pytest.fixture(scope="module")
def payloads():
    return demo_payloads(unique=6, time_limit=20.0)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("fleet-cache")
    with BackgroundFleet(replicas=2, cache_dir=str(cache_dir)) as running:
        yield running


def solve_at(host, port, payload):
    async def scenario():
        async with GatewayClient(host, port) as client:
            return await client.solve(payload)

    return asyncio.run(scenario())


def owner_port(fleet, payload) -> int:
    fingerprint = job_from_dict(payload).fingerprint
    node = fleet.router.ring.owner(fingerprint)
    return int(node.rsplit(":", 1)[1])


def rollup_cache(fleet):
    return fetch_metrics_json(fleet.host, fleet.port)["cache"]


class TestColdWarm:
    def test_miss_then_hit_through_the_router(self, fleet, payloads):
        status, body = solve_at(fleet.host, fleet.port, payloads[0])
        assert status == 200, body
        assert body["cached"] is False
        assert body["result"]["feasible"] is True
        status, body = solve_at(fleet.host, fleet.port, payloads[0])
        assert status == 200
        assert body["cached"] is True

    def test_warm_hit_crosses_replicas_via_the_shared_tier(self, fleet, payloads):
        first_port, second_port = fleet.manager.ports
        status, body = solve_at(fleet.host, first_port, payloads[1])
        assert status == 200 and body["cached"] is False
        # the *other* replica never solved this job, but shares the disk tier
        status, body = solve_at(fleet.host, second_port, payloads[1])
        assert status == 200
        assert body["cached"] is True


class TestRouterSingleFlight:
    def test_concurrent_identical_misses_store_exactly_once(self, fleet, payloads):
        payload = payloads[2]
        stores_before = rollup_cache(fleet)["stores"]

        async def race():
            async def hit():
                async with GatewayClient(fleet.host, fleet.port) as client:
                    return await client.solve(payload)

            return await asyncio.gather(*(hit() for _ in range(4)))

        responses = asyncio.run(race())
        assert [status for status, _body in responses] == [200] * 4
        assert all(body["result"]["feasible"] for _status, body in responses)
        # exactly one solve fleet-wide: the ring sent every copy to the owner
        # replica, where the repeats joined the first solve (or hit its entry)
        assert rollup_cache(fleet)["stores"] - stores_before == 1


class TestChaos:
    def test_killing_a_replica_fails_no_requests(self, fleet, payloads):
        payload = payloads[3]
        victim_port = owner_port(fleet, payload)
        victim_index = fleet.manager.ports.index(victim_port)
        fleet.manager.kill_replica(victim_index)
        # the request owned by the dead replica still succeeds: the router
        # fails over (or retries until the supervisor restarts it)
        status, body = solve_at(fleet.host, fleet.port, payload)
        assert status == 200, body
        assert body["result"]["feasible"] is True
        fleet.manager.wait_healthy(victim_index, timeout=60.0)
        assert fleet.manager.total_restarts >= 1
        # the restarted replica answers again, warm from the shared tier
        status, body = solve_at(fleet.host, victim_port, payload)
        assert status == 200
        assert body["cached"] is True


class TestFleetRollup:
    def test_rollup_reflects_both_replicas(self, fleet, payloads):
        solve_at(fleet.host, fleet.port, payloads[4])
        document = fetch_metrics_json(fleet.host, fleet.port)
        assert document["replicas_reporting"] == 2
        assert document["counters"]["received"] >= 1
        assert document["cache"]["stores"] >= 1
        assert document["router"]["routed"] >= 1
        assert "request" in document["histograms"]
