"""Router behaviour over real loopback HTTP against stub replica gateways.

Each "replica" is a :class:`BackgroundGateway` with a stubbed worker pool
(instant canned results, per-gateway in-memory cache), so the tests observe
exactly where the router sent each request: a repeat that lands on its owner
is a cache hit, a repeat that strays is a second stub solve.
"""

import asyncio
import socketserver
import threading

import pytest

from repro.fleet.harness import BackgroundRouter
from repro.fleet.router import FleetRouter, RouterConfig, UpstreamPool
from repro.server.loadgen import GatewayClient, demo_payloads, run_closed_loop
from repro.server.metrics import GatewayMetrics
from repro.server.protocol import job_from_dict
from repro.service.cache import CacheStats
from tests.server.malformed_bodies import DEVICE_ERRORS, mutated
from tests.server.test_gateway_e2e import NO_FLOORPLAN, stub_gateway


class StubFleet:
    """N stub gateways plus a router frontend, torn down in one call."""

    def __init__(
        self,
        replicas: int = 2,
        router_config: RouterConfig = None,
        delay: float = 0.0,
        overrides=None,
    ):
        self.gateways = []
        self.pools = []
        for _ in range(replicas):
            gateway, pool = stub_gateway(delay=delay, overrides=overrides)
            self.gateways.append(gateway)
            self.pools.append(pool)
        addresses = [(gw.host, gw.port) for gw in self.gateways]
        self.router = BackgroundRouter(
            FleetRouter(
                addresses,
                router_config
                or RouterConfig(port=0, retry_deadline=10.0, retry_wait=0.02),
            )
        )

    @property
    def host(self):
        return self.router.router.config.host

    @property
    def port(self):
        return self.router.port

    def owner_index(self, payload) -> int:
        """Which gateway the ring assigns this payload's fingerprint to."""
        fingerprint = job_from_dict(payload).fingerprint
        node = self.router.router.ring.owner(fingerprint)
        for index, gateway in enumerate(self.gateways):
            if f"{gateway.host}:{gateway.port}" == node:
                return index
        raise AssertionError(f"owner {node} is not one of our gateways")

    def stop(self):
        self.router.stop()
        for gateway in self.gateways:
            gateway.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


@pytest.fixture(scope="module")
def payloads():
    return demo_payloads(unique=4, time_limit=20.0)


def via_router(fleet, requests):
    """Send ``requests`` payloads through the router on one connection."""

    async def scenario():
        responses = []
        async with GatewayClient(fleet.host, fleet.port) as client:
            for payload in requests:
                responses.append(await client.solve(payload))
        return responses

    return asyncio.run(scenario())


class TestRouting:
    def test_repeats_land_on_their_owner(self, payloads):
        with StubFleet(replicas=3) as fleet:
            responses = via_router(fleet, payloads + payloads)
            assert all(status == 200 for status, _body in responses)
            # sticky fingerprint routing: each unique solved exactly once
            # fleet-wide, every repeat was a memory-hot hit on its owner
            assert sum(pool.solved for pool in fleet.pools) == len(payloads)
            repeats = responses[len(payloads):]
            assert all(body["cached"] for _status, body in repeats)
            assert fleet.router.router.metrics.routed == 2 * len(payloads)
            assert fleet.router.router.metrics.failovers == 0

    def test_each_fingerprint_is_solved_on_its_ring_owner(self, payloads):
        with StubFleet(replicas=3) as fleet:
            for payload in payloads:
                owner = fleet.owner_index(payload)
                before = [pool.solved for pool in fleet.pools]
                (status, _body), = via_router(fleet, [payload])
                assert status == 200
                after = [pool.solved for pool in fleet.pools]
                expected = list(before)
                expected[owner] += 1
                assert after == expected

    def test_concurrent_herd_solves_each_unique_once(self, payloads):
        """Clients 0 and 2 (and 1 and 3) open with the same payload at once;
        the ring sends both to one replica, whose batcher joins the repeat."""
        with StubFleet(replicas=2, delay=0.2) as fleet:
            result = run_closed_loop(
                fleet.host, fleet.port, payloads[:2], clients=4, requests_per_client=4
            )
            assert result.sent == 16 and result.ok == 16
            assert sum(pool.solved for pool in fleet.pools) == 2
            assert result.hits == 14

    def test_routes_and_errors(self, payloads):
        with StubFleet() as fleet:
            async def scenario():
                async with GatewayClient(fleet.host, fleet.port) as client:
                    results = {}
                    results["health"] = await client.healthz()
                    results["bad"] = await client.request(
                        "POST", "/solve", {"not": "a job"}
                    )
                    results["missing"] = await client.request("GET", "/nope")
                    results["wrong_method"] = await client.request("GET", "/solve")
                    return results

            results = asyncio.run(scenario())
        status, health = results["health"]
        assert status == 200 and health["status"] == "ok"
        assert {replica["up"] for replica in health["replicas"]} == {True}
        status, body = results["bad"]
        assert status == 400 and "error" in body
        assert results["missing"][0] == 404
        assert results["wrong_method"][0] == 405
        assert fleet.router.router.metrics.bad_requests == 1

    def test_malformed_device_bodies_answer_400_with_their_message(self):
        cases = [(mutated(mutate), message) for _id, mutate, message in DEVICE_ERRORS]
        with StubFleet() as fleet:
            responses = via_router(fleet, [payload for payload, _message in cases])
            assert [status for status, _body in responses] == [400] * len(cases)
            assert [body["error"] for _status, body in responses] == [
                message for _payload, message in cases
            ]
            assert fleet.router.router.metrics.bad_requests == len(cases)
            assert sum(pool.solved for pool in fleet.pools) == 0

    def test_solve_response_is_relayed_verbatim(self, payloads):
        with StubFleet() as fleet:
            (status, body), = via_router(fleet, payloads[:1])
            assert status == 200
            assert body["result"]["status"] == "optimal"
            assert body["result"]["backend"] == "stub"
            assert body["cached"] is False


class TestFailover:
    def test_dead_owner_fails_over_to_the_next_replica(self, payloads):
        with StubFleet(replicas=2) as fleet:
            payload = payloads[0]
            owner = fleet.owner_index(payload)
            fleet.gateways[owner].stop()
            (status, body), = via_router(fleet, [payload])
            assert status == 200
            assert body["result"]["status"] == "optimal"
            metrics = fleet.router.router.metrics
            assert metrics.failovers >= 1
            assert metrics.retries >= 1
            # the survivor did the solve
            assert fleet.pools[1 - owner].solved == 1

    def test_whole_fleet_down_answers_503_after_the_budget(self, payloads):
        config = RouterConfig(port=0, retry_deadline=0.4, retry_wait=0.02)
        with StubFleet(replicas=2, router_config=config) as fleet:
            for gateway in fleet.gateways:
                gateway.stop()
            (status, body), = via_router(fleet, payloads[:1])
            assert status == 503
            assert "error" in body
            assert fleet.router.router.metrics.unavailable == 1


class TestDegradedRelay:
    def test_no_floorplan_503_is_relayed_once_with_retry_after(self, payloads):
        """A healthy replica's degraded 503 is its answer: no retry on the
        next replica, no breaker failure, and the Retry-After survives."""
        with StubFleet(replicas=2, overrides=NO_FLOORPLAN) as fleet:
            async def scenario():
                async with GatewayClient(fleet.host, fleet.port) as client:
                    status, body = await client.solve(payloads[0])
                    return status, body, client.last_headers

            status, body, headers = asyncio.run(scenario())
            assert status == 503 and body["reason"] == "degraded_no_floorplan"
            assert headers["retry-after"] == "1"
            assert sorted(pool.solved for pool in fleet.pools) == [0, 1]
            router = fleet.router.router
            assert router.metrics.retries == 0 and router.metrics.unavailable == 0
            assert all(pool.failures == 0 for pool in router.pools.values())


class TestRollup:
    def test_counters_sum_and_histograms_merge(self, payloads):
        with StubFleet(replicas=2) as fleet:
            via_router(fleet, payloads + payloads)

            async def scrape():
                async with GatewayClient(fleet.host, fleet.port) as client:
                    _status, formatted = await client.metrics()
                    status, machine = await client.request(
                        "GET", "/metrics?format=json"
                    )
                    return formatted, status, machine

            formatted, status, machine = asyncio.run(scrape())
        assert status == 200
        assert formatted["replicas_reporting"] == 2
        # summed across replicas: all 8 requests, 4 misses + 4 hits
        assert formatted["counters"]["received"] == 2 * len(payloads)
        assert formatted["counters"]["cache_hits"] == len(payloads)
        assert formatted["counters"]["cache_misses"] == len(payloads)
        assert formatted["counters"]["hit_rate"] == 0.5
        assert formatted["router"]["routed"] == 2 * len(payloads)
        assert "counters" in formatted["tables"]
        # the machine document carries mergeable raw buckets, not tables
        assert "histograms" in machine and "tables" not in machine
        request_histogram = machine["histograms"]["request"]
        assert request_histogram["count"] == 2 * len(payloads)

    def test_down_replica_is_reported_not_fatal(self, payloads):
        with StubFleet(replicas=2) as fleet:
            fleet.gateways[0].stop()

            async def scrape():
                async with GatewayClient(fleet.host, fleet.port) as client:
                    return await client.metrics()

            status, rollup = asyncio.run(scrape())
        assert status == 200
        assert rollup["replicas_reporting"] == 1
        reporting = {r["node"]: r["reporting"] for r in rollup["replicas"]}
        assert sorted(reporting.values()) == [False, True]


class TestRollupArithmetic:
    """The roll-up sums raw replica fields and renders them with the
    gateway's own counter and cache formulas (no replica is contacted)."""

    @staticmethod
    def snapshot(metrics, cache, queue_depth, uptime):
        counters = metrics.counters(queue_depth=queue_depth)
        counters["uptime_s"] = uptime
        return {"counters": counters, "cache": cache.as_dict(), "histograms": {}}

    def test_raw_fields_are_summed_and_rates_rederived(self, monkeypatch):
        first = GatewayMetrics(
            received=10, ok=7, shed_rate_limited=1, shed_queue_full=2,
            cache_hits=3, cache_misses=4, batches=2, batched_jobs=5, deduped_jobs=1,
        )
        second = GatewayMetrics(
            received=30, ok=25, shed_queue_full=1, cache_hits=9, cache_misses=3,
            batches=1, batched_jobs=4, degraded=2,
        )
        snapshots = [
            self.snapshot(first, CacheStats(hits=5, misses=5, stores=4), 2, 12.5),
            self.snapshot(second, CacheStats(hits=7, misses=1, corrupt=1), 3, 40.25),
        ]
        router = FleetRouter([("127.0.0.1", 1), ("127.0.0.1", 2)], RouterConfig(port=0))
        replies = iter(snapshots)

        async def fake_fetch(pool):
            return next(replies)

        monkeypatch.setattr(router, "_fetch_replica_metrics", fake_fetch)
        rollup = asyncio.run(router.metrics_rollup(raw=True))
        counters, cache = rollup["counters"], rollup["cache"]

        assert set(GatewayMetrics().counters()) <= set(counters)
        assert set(CacheStats().as_dict()) <= set(cache)
        assert rollup["replicas_reporting"] == 2
        assert counters["received"] == 40 and counters["ok"] == 32
        assert counters["shed_queue_full"] == 3 and counters["degraded"] == 2
        assert counters["deduped_jobs"] == 1
        assert counters["queue_depth"] == 5
        assert counters["uptime_s"] == 40.25
        assert cache["hits"] == 12 and cache["stores"] == 4 and cache["corrupt"] == 1
        # the gateway's formulas applied to the summed counts
        assert counters["shed_rate"] == round(4 / 40, 6)
        assert counters["hit_rate"] == round(12 / 19, 6)
        assert counters["mean_batch_size"] == round(9 / 3, 3)
        assert cache["hit_rate"] == 12 / 18


#: Broken upstream answers: each must cost a failover, never a 500.
MALFORMED_RESPONSES = {
    "content_length": b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
    "status_code": b"HTTP/1.1 abc OK\r\nContent-Length: 2\r\n\r\n{}",
    "status_line": b"HTTP/9 200 OK\r\nContent-Length: 2\r\n\r\n{}",
}


class MalformedUpstream(socketserver.ThreadingTCPServer):
    """A fake replica: reads one request per connection, answers ``response``."""

    daemon_threads = True

    def __init__(self, response: bytes):
        super().__init__(("127.0.0.1", 0), _MalformedHandler)
        self.response = response
        self.requests = 0
        self.node = f"127.0.0.1:{self.server_address[1]}"
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def __exit__(self, *exc_info):
        self.shutdown()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
        super().__exit__(*exc_info)


class _MalformedHandler(socketserver.StreamRequestHandler):
    def handle(self):
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _sep, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        self.server.requests += 1
        self.wfile.write(self.server.response)


@pytest.mark.parametrize(
    "response", list(MALFORMED_RESPONSES.values()), ids=list(MALFORMED_RESPONSES)
)
class TestMalformedUpstream:
    def test_router_fails_over_to_the_next_replica(self, response):
        gateway, pool = stub_gateway()
        with MalformedUpstream(response) as fake, gateway:
            address = fake.server_address
            config = RouterConfig(port=0, down_cooldown=60.0, retry_wait=0.02)
            with BackgroundRouter(
                FleetRouter([address, (gateway.host, gateway.port)], config)
            ) as harness:
                router = harness.router
                payload = next(
                    candidate for candidate in demo_payloads(unique=16)
                    if router.ring.owner(job_from_dict(candidate).fingerprint)
                    == fake.node
                )

                async def scenario():
                    async with GatewayClient(router.config.host, harness.port) as client:
                        return await client.solve(payload)

                status, body = asyncio.run(scenario())
                bad = router.pools[fake.node]
                assert status == 200, body
                assert body["result"]["backend"] == "stub"
                assert fake.requests == 1 and pool.solved == 1
                assert router.metrics.failovers == 1
                assert bad.failures == 1 and bad.down
                assert not bad._idle  # discarded, never pooled for reuse

    def test_gateway_client_raises_connection_error(self, response):
        with MalformedUpstream(response) as fake:
            host, port = fake.server_address

            async def scenario():
                async with GatewayClient(host, port) as client:
                    return await client.healthz()

            with pytest.raises(ConnectionError):
                asyncio.run(scenario())


class TestUpstreamPool:
    def test_connection_the_replica_closed_while_idle_is_not_reused(self):
        """A replica that was killed or restarted between two requests left
        its pooled connection at EOF; the next request must open a fresh one
        instead of failing as if the replica were down."""

        async def handle(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
            writer.close()  # no Connection: close, so the pool keeps its end

        async def scenario():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = UpstreamPool("127.0.0.1", port, RouterConfig(port=0))
            try:
                first = await pool.request("GET", "/healthz")
                assert len(pool._idle) == 1
                await asyncio.sleep(0.1)  # the close reaches the pooled reader
                second = await pool.request("GET", "/healthz")
            finally:
                await pool.close()
                server.close()
                await server.wait_closed()
            return first[0], second[0], pool.failures

        assert asyncio.run(scenario()) == (200, 200, 0)
