"""End-to-end gateway tests over real loopback HTTP.

Most tests inject a stub worker pool so the HTTP/cache/batching/admission
paths are exercised without MILP solves; one test runs a real solve through
the full stack.
"""

import asyncio
import dataclasses
import json
import os
import socket
import time

import pytest

from repro.server.gateway import BackgroundGateway, GatewayConfig
from repro.server.loadgen import GatewayClient, closed_loop, demo_payloads, open_loop
from repro.server.protocol import job_from_dict
from repro.service.cache import SolveCache
from repro.service.results import JobResult
from tests.server.malformed_bodies import mutated


class StubWorkerPool:
    """Answers every job with a canned optimal result after ``delay``.

    ``delays`` overrides the delay per fingerprint; up to ``threads`` jobs
    wait out their delays concurrently.  ``overrides`` replaces fields of
    every result; an ``error`` or ``degraded`` one is not cached, as the real
    pool caches neither.
    """

    def __init__(
        self,
        cache: SolveCache,
        delay: float = 0.0,
        fail: bool = False,
        delays=None,
        overrides=None,
        threads=None,
    ):
        self.cache = cache
        self.threads = threads or 8
        self.delay = delay
        self.fail = fail
        self.delays = dict(delays or {})
        self.overrides = dict(overrides or {})
        self.solved = 0

    async def solve(self, job, budget=None):
        await asyncio.sleep(self.delays.get(job.fingerprint, self.delay))
        self.solved += 1
        status = "error" if self.fail else "optimal"
        result = JobResult(
            fingerprint=job.fingerprint,
            job_name=job.name,
            status=status,
            feasible=not self.fail,
            objective=3.0,
            solve_time=0.01,
            wall_time=0.01,
            backend="stub",
            mode=job.mode,
            error="stub failure" if self.fail else None,
        )
        result = dataclasses.replace(result, **self.overrides)
        if result.status != "error" and not result.degraded:
            self.cache.put(result)
        return result

    def shutdown(self, wait: bool = True):
        pass


def stub_gateway(config=None, delay: float = 0.0, fail: bool = False, overrides=None):
    cache = SolveCache()
    config = config or GatewayConfig(port=0)
    pool = StubWorkerPool(
        cache, delay=delay, fail=fail, overrides=overrides, threads=config.solver_threads
    )
    return BackgroundGateway(config=config, cache=cache, worker_pool=pool), pool


@pytest.fixture(scope="module")
def payloads():
    return demo_payloads(unique=3, time_limit=20.0)


class TestRoutes:
    def test_healthz_and_metrics(self, payloads):
        gw, _pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, health = await client.healthz()
                    assert status == 200 and health["status"] == "ok"
                    status, metrics = await client.metrics()
                    assert status == 200
                    assert "counters" in metrics and "tables" in metrics
                    status, _ = await client.request("GET", "/nope")
                    assert status == 404
                    status, _ = await client.request("GET", "/solve")
                    assert status == 405

            asyncio.run(scenario())

    def test_bad_request_bodies(self, payloads):
        gw, _pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, body = await client.request("POST", "/solve", {"nope": 1})
                    assert status == 400 and "error" in body
                    # raw non-JSON body
                    client._writer.write(
                        b"POST /solve HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: 9\r\n\r\nnot-json!"
                    )
                    await client._writer.drain()
                    head = b""
                    while b"\r\n\r\n" not in head:
                        head += await client._reader.readline()
                    assert b"400" in head.split(b"\r\n", 1)[0]

            asyncio.run(scenario())

    def test_fractional_value_answers_400(self):
        def mutate(payload):
            payload["problem"]["regions"][0]["requirements"]["CLB"] = 2.9

        gw, pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    return await client.request("POST", "/solve", mutated(mutate))

            status, body = asyncio.run(scenario())
        assert status == 400
        assert body["error"] == "region 'A' resource 'CLB' must be an integer, got 2.9"
        assert pool.solved == 0

    def test_oversized_header_answers_413_not_dropped(self, payloads):
        gw, _pool = stub_gateway()
        with gw:
            async def scenario():
                reader, writer = await asyncio.open_connection(gw.host, gw.port)
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024) + b"\r\n\r\n"
                )
                await writer.drain()
                head = await reader.readline()
                writer.close()
                return head

            head = asyncio.run(scenario())
        assert b"413" in head

    def test_unexpected_dispatch_error_answers_500(self, payloads, monkeypatch):
        gw, _pool = stub_gateway()
        with gw:
            async def boom(request):
                raise KeyError("surprise")

            gw.gateway._dispatch = boom

            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    return await client.healthz()

            status, body = asyncio.run(scenario())
        assert status == 500
        assert "KeyError" in body["error"]

    def test_miss_then_hit_flow(self, payloads):
        gw, pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, body = await client.solve(payloads[0])
                    assert status == 200
                    assert body["cached"] is False
                    assert body["result"]["status"] == "optimal"
                    status, body = await client.solve(payloads[0])
                    assert status == 200
                    assert body["cached"] is True

            asyncio.run(scenario())
        assert pool.solved == 1  # second request never reached the workers

    def test_solver_error_maps_to_500(self, payloads):
        gw, _pool = stub_gateway(fail=True)
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, body = await client.solve(payloads[0])
                    assert status == 500
                    assert body["result"]["error"] == "stub failure"

            asyncio.run(scenario())

    def test_error_results_are_not_cached(self, payloads):
        gw, pool = stub_gateway(fail=True)
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    await client.solve(payloads[0])
                    await client.solve(payloads[0])

            asyncio.run(scenario())
        assert pool.solved == 2  # both attempts executed, neither cached


class TestAdmission:
    def test_queue_full_sheds_with_429(self, payloads):
        # one solver thread, busy with the first miss for 0.2 s: the rest
        # find the queue full
        config = GatewayConfig(port=0, max_queue_depth=1, solver_threads=1)
        gw, _pool = stub_gateway(config=config, delay=0.2)
        with gw:
            async def scenario():
                result = await closed_loop(
                    gw.host, gw.port, payloads, clients=6, requests_per_client=1
                )
                return result

            result = asyncio.run(scenario())
        assert result.shed >= 1
        assert result.ok >= 1
        assert gw.gateway.metrics.shed_queue_full == result.shed

    def test_rate_limit_sheds_with_429(self, payloads):
        config = GatewayConfig(port=0, rate_limit=1.0, rate_burst=2.0)
        gw, _pool = stub_gateway(config=config)
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port, client_id="hog") as client:
                    statuses = []
                    for _ in range(5):
                        status, body = await client.solve(payloads[0])
                        statuses.append((status, body.get("reason")))
                    return statuses

            statuses = asyncio.run(scenario())
        shed = [reason for status, reason in statuses if status == 429]
        assert shed and all(reason == "rate_limited" for reason in shed)
        assert statuses[0][0] == 200  # the burst admitted the first request

    def test_spinning_client_ids_cannot_bypass_rate_limit(self, payloads):
        # by default the header is untrusted: buckets key on the peer address,
        # so a fresh X-Client-Id per request gets no fresh burst
        config = GatewayConfig(port=0, rate_limit=1.0, rate_burst=2.0)
        gw, _pool = stub_gateway(config=config)
        with gw:
            async def scenario():
                statuses = []
                for index in range(5):
                    async with GatewayClient(
                        gw.host, gw.port, client_id=f"spin-{index}"
                    ) as client:
                        status, _body = await client.solve(payloads[0])
                        statuses.append(status)
                return statuses

            statuses = asyncio.run(scenario())
        assert statuses.count(429) >= 2  # the spin did not mint new buckets

    def test_trusted_client_ids_get_per_client_buckets(self, payloads):
        config = GatewayConfig(
            port=0, rate_limit=1.0, rate_burst=1.0, trust_client_id=True
        )
        gw, _pool = stub_gateway(config=config)
        with gw:
            async def scenario():
                statuses = []
                for name in ("alice", "bob"):
                    async with GatewayClient(gw.host, gw.port, client_id=name) as client:
                        status, _body = await client.solve(payloads[0])
                        statuses.append(status)
                return statuses

            statuses = asyncio.run(scenario())
        assert statuses == [200, 200]  # each trusted id has its own burst

    def test_draining_gateway_answers_503(self, payloads):
        gw, _pool = stub_gateway()
        try:
            async def warm():
                async with GatewayClient(gw.host, gw.port) as client:
                    await client.solve(payloads[0])

            asyncio.run(warm())
            # flip the drain flag directly: the listener still answers
            gw.gateway._draining = True

            async def probe():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, _body = await client.solve(payloads[0])
                    health_status, health = await client.healthz()
                    return status, health_status, health

            status, health_status, health = asyncio.run(probe())
            assert status == 503
            assert health_status == 200 and health["status"] == "draining"
        finally:
            gw.stop()


#: A clamped solve's result that ran out before any floorplan existed.
NO_FLOORPLAN = dict(status="time_limit", feasible=False, objective=float("nan"), degraded=True)
SEED_FAILED = dict(
    status="error",
    feasible=False,
    objective=float("nan"),
    error="HOSeedError: could only reserve 1/3 free-compatible areas for 'Carrier Recovery'",
)


class TestDegradedAnswers:
    def test_degraded_answer_without_a_floorplan_is_503_with_retry_after(self, payloads):
        gw, _pool = stub_gateway(overrides=NO_FLOORPLAN)
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, body = await client.solve(payloads[0])
                    return status, body, client.last_headers

            status, body, headers = asyncio.run(scenario())
        assert status == 503, body
        assert body["reason"] == "degraded_no_floorplan"
        assert headers["retry-after"] == "1"
        assert gw.gateway.metrics.degraded == 1 and gw.gateway.metrics.ok == 0

    def test_seed_failure_is_503_on_the_first_send_and_the_repeat(self):
        """SDR3 with hard relocation in HO mode: the heuristic seed cannot
        reserve every copy, so there is no floorplan.  The answer is a 503
        with Retry-After and X-Repro-No-Floorplan, never a 500, and it is not
        cached, so the repeat is no 200."""
        from repro.milp import SolverOptions
        from repro.server.protocol import job_to_dict
        from repro.service.jobs import SolveJob
        from repro.workloads.sdr import sdr3_spec, sdr_problem

        job = SolveJob(
            sdr_problem(), relocation=sdr3_spec(hard=True), mode="HO",
            options=SolverOptions(time_limit=30.0),
        )
        with BackgroundGateway(GatewayConfig(port=0, solver_threads=1)) as gw:
            async def scenario():
                answers = []
                async with GatewayClient(gw.host, gw.port) as client:
                    for _ in range(2):
                        status, body = await client.solve(job_to_dict(job))
                        answers.append((status, body, dict(client.last_headers)))
                return answers

            answers = asyncio.run(scenario())
            assert gw.gateway.cache.get(job.fingerprint) is None
            metrics = gw.gateway.metrics
        for status, body, headers in answers:
            assert status == 503, body
            assert body["reason"] == "seed_failed"
            assert body["error"].startswith("HOSeedError:")
            assert headers["retry-after"] == "1"
            assert headers["x-repro-no-floorplan"] == "1"
        assert metrics.solve_errors == 0 and metrics.ok == 0
        assert metrics.cache_misses == 2 and metrics.seed_failures == 2


class TestWarmHitRate:
    def test_warm_repeat_run_hit_rate_end_to_end(self, payloads):
        """The acceptance check: warm-cache repeat traffic >= 0.9 hit rate
        measured end to end through the HTTP path."""
        gw, _pool = stub_gateway()
        with gw:
            async def scenario():
                cold = await closed_loop(
                    gw.host, gw.port, payloads, clients=3, requests_per_client=4
                )
                warm = await closed_loop(
                    gw.host, gw.port, payloads, clients=3, requests_per_client=4
                )
                return cold, warm

            cold, warm = asyncio.run(scenario())
        assert cold.ok == 12 and warm.ok == 12
        assert warm.hit_rate >= 0.9
        assert gw.gateway.metrics.hit_rate > 0.5

    def test_open_loop_against_warm_gateway(self, payloads):
        gw, _pool = stub_gateway()
        with gw:
            async def scenario():
                await closed_loop(gw.host, gw.port, payloads, clients=1,
                                  requests_per_client=len(payloads))
                return await open_loop(
                    gw.host, gw.port, payloads, rate=200.0, horizon=0.3, seed=3
                )

            result = asyncio.run(scenario())
        assert result.sent > 0
        assert result.errors == 0
        assert result.hit_rate >= 0.9


async def until_queue_depth(gateway, depth: int) -> None:
    """Poll until ``gateway``'s batcher holds ``depth`` unanswered jobs."""
    for _ in range(1000):
        if gateway.batcher.queue_depth == depth:
            return
        await asyncio.sleep(0.002)
    raise AssertionError(f"queue depth never reached {depth}")


class TestStreamedAnswers:
    def test_fast_request_answered_while_a_slow_one_solves(self, payloads):
        slow, fast = payloads[1], payloads[0]
        cache = SolveCache()
        pool = StubWorkerPool(cache, delays={job_from_dict(slow).fingerprint: 0.3})
        with BackgroundGateway(config=GatewayConfig(port=0), cache=cache, worker_pool=pool) as gw:
            async def scenario():
                answered = []

                async def solve(payload):
                    async with GatewayClient(gw.host, gw.port) as client:
                        status, body = await client.solve(payload)
                        assert status == 200, body
                        answered.append((body["fingerprint"], time.perf_counter()))

                await asyncio.gather(solve(slow), solve(fast))
                return answered

            answered = asyncio.run(scenario())
        # each miss is its own solve, counted as a batch of one waiter
        assert gw.gateway.metrics.batches == 2
        assert gw.gateway.metrics.batched_jobs == 2
        (first, fast_at), (second, slow_at) = answered
        assert [first, second] == [
            job_from_dict(fast).fingerprint, job_from_dict(slow).fingerprint
        ]
        assert slow_at - fast_at > 0.15  # not held for the slow solve


class TestStaggeredMisses:
    def test_staggered_misses_each_answer_in_one_solve_time(self, monkeypatch):
        """Four 0.3 s misses sent 50 ms apart to a gateway with four solver
        threads each answer in about one solve time: none waits for a solve
        to end while a solver thread sits idle."""
        from repro.server import workers

        def slow(job):
            time.sleep(0.3)
            return JobResult(
                fingerprint=job.fingerprint, job_name=job.name, status="optimal",
                feasible=True, objective=1.0, solve_time=0.3, wall_time=0.3,
                backend="stub", mode=job.mode,
            )

        monkeypatch.setattr(workers, "execute_job", slow)
        payloads = demo_payloads(unique=4, time_limit=20.0)
        with BackgroundGateway(GatewayConfig(port=0, solver_threads=4)) as gw:
            async def timed(payload, delay):
                await asyncio.sleep(delay)
                async with GatewayClient(gw.host, gw.port) as client:
                    sent = time.perf_counter()
                    status, _body = await client.solve(payload)
                    return status, time.perf_counter() - sent

            async def scenario():
                return await asyncio.gather(
                    *(timed(payload, 0.05 * index) for index, payload in enumerate(payloads))
                )

            answers = asyncio.run(scenario())
        assert [status for status, _latency in answers] == [200] * 4
        assert max(latency for _status, latency in answers) < 0.35, answers


class TestRealSolveEndToEnd:
    def test_one_real_milp_solve_through_http(self):
        """Full stack, no stubs: HTTP -> protocol -> batcher -> WorkerPool -> execute_job."""
        payload = demo_payloads(unique=1, time_limit=30.0)[0]
        config = GatewayConfig(port=0, solver_threads=1)
        with BackgroundGateway(config) as gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, body = await client.solve(payload)
                    assert status == 200, body
                    assert body["result"]["feasible"] is True
                    assert body["cached"] is False
                    status, body = await client.solve(payload)
                    assert status == 200
                    assert body["cached"] is True
                    return json.loads(json.dumps(body))  # payload is JSON-clean

            body = asyncio.run(scenario())
        assert body["result"]["floorplan"] is not None

    def test_stage_spans_sit_between_the_flush_and_the_answer(self, monkeypatch):
        """In a traced miss the solver's stages start no earlier than the end
        of the request's wait for a solver thread and end by the end of its
        solve.

        One solver thread, held by a first real solve padded by 0.3 s, so the
        two misses behind it wait for it.
        """
        from repro.server import workers

        blocker, *behind = demo_payloads(unique=3, time_limit=30.0)
        blocker_name = job_from_dict(blocker).name
        execute = workers.execute_job

        def padded(job):
            if job.name == blocker_name:
                time.sleep(0.3)
            return execute(job)

        monkeypatch.setattr(workers, "execute_job", padded)
        config = GatewayConfig(port=0, solver_threads=1)
        with BackgroundGateway(config) as gw:
            async def solve(payload):
                async with GatewayClient(gw.host, gw.port) as client:
                    status, body = await client.solve(payload)
                    assert status == 200, body

            async def scenario():
                first = asyncio.ensure_future(solve(blocker))
                await until_queue_depth(gw.gateway, 1)
                await asyncio.gather(*(solve(payload) for payload in behind))
                await first

            asyncio.run(scenario())
            docs = [  # the two misses that waited out the blocker
                doc for doc in gw.gateway.recorder.list()
                if any(
                    span["name"] == "batch.assembly" and span["end"] - span["start"] > 0.2
                    for span in doc["spans"]
                )
            ]
        assert len(docs) == 2
        for doc in docs:
            spans = doc["spans"]
            solve_span = next(span for span in spans if span["name"] == "gateway.solve")
            assembly = next(span for span in spans if span["name"] == "batch.assembly")
            assert assembly["annotations"] == {"waiters": 1}
            stages = [
                span for span in spans
                if span["parent_id"] == solve_span["span_id"]
                and span["name"] != "batch.assembly"
            ]
            assert stages, "a fresh solve lays its stage spans"
            assert stages[0]["start"] >= assembly["end"]
            assert stages[-1]["end"] <= solve_span["end"]


class TestSameReplicaRepeats:
    @pytest.mark.parametrize("with_directory", [False, True], ids=["memory", "directory"])
    def test_concurrent_identical_misses_solve_once(self, payloads, tmp_path, with_directory):
        """The repeat joins the first request's solve in the batcher, with or
        without a cache directory."""
        cache = SolveCache(tmp_path if with_directory else None)
        pool = StubWorkerPool(cache, delay=0.2)
        with BackgroundGateway(
            config=GatewayConfig(port=0), cache=cache, worker_pool=pool
        ) as gw:
            async def solve():
                async with GatewayClient(gw.host, gw.port) as client:
                    return await client.solve(payloads[0])

            async def scenario():
                return await asyncio.gather(solve(), solve())

            answers = asyncio.run(scenario())
            spans = [span["name"] for doc in gw.gateway.recorder.list() for span in doc["spans"]]
        assert [status for status, _body in answers] == [200, 200]
        assert sorted(body["cached"] for _status, body in answers) == [False, True]
        assert pool.solved == 1
        assert "flight.wait" not in spans
        # the repeat joined a running solve: still one batch of two waiters
        metrics = gw.gateway.metrics
        assert (metrics.batches, metrics.deduped_jobs, metrics.mean_batch_size) == (1, 1, 2.0)


class TestLockFilesAreIgnored:
    def test_hand_written_lock_file_does_not_delay_a_miss(self, payloads, tmp_path):
        """A ``<fingerprint>.lock`` file naming a live process, as an older
        replica sharing the directory would leave, is not a lock: the miss is
        solved at once and the file is left alone."""
        fingerprint = job_from_dict(payloads[0]).fingerprint
        lock = tmp_path / f"{fingerprint}.lock"
        lock.write_text(json.dumps(
            {"pid": os.getpid(), "host": socket.gethostname(), "acquired_at": time.time()}
        ))
        before = lock.read_bytes()
        cache = SolveCache(tmp_path)
        pool = StubWorkerPool(cache)
        with BackgroundGateway(
            config=GatewayConfig(port=0), cache=cache, worker_pool=pool
        ) as gw:
            async def solve():
                async with GatewayClient(gw.host, gw.port) as client:
                    return await client.solve(payloads[0], deadline=2.0)

            started = time.monotonic()
            status, body = asyncio.run(solve())
            elapsed = time.monotonic() - started
            spans = [span["name"] for doc in gw.gateway.recorder.list() for span in doc["spans"]]
        assert status == 200 and body["cached"] is False
        assert pool.solved == 1
        assert elapsed < 1.0
        assert "flight.wait" not in spans
        assert lock.read_bytes() == before


class TestSharedDirectory:
    """Two gateways on one cache directory, as two fleet replicas are."""

    @staticmethod
    def replica(directory, delay=0.0):
        cache = SolveCache(directory)
        pool = StubWorkerPool(cache, delay=delay)
        return BackgroundGateway(config=GatewayConfig(port=0), cache=cache, worker_pool=pool), pool

    @staticmethod
    def solve(gateway, payload):
        async def scenario():
            async with GatewayClient(gateway.host, gateway.port) as client:
                return await client.solve(payload)

        return scenario()

    def test_second_replica_answers_from_the_directory_without_solving(self, payloads, tmp_path):
        (first, first_pool), (second, second_pool) = self.replica(tmp_path), self.replica(tmp_path)
        with first, second:
            cold = asyncio.run(self.solve(first, payloads[0]))
            warm = asyncio.run(self.solve(second, payloads[0]))
        assert cold[0] == warm[0] == 200
        assert (cold[1]["cached"], warm[1]["cached"]) == (False, True)
        assert (first_pool.solved, second_pool.solved) == (1, 0)
        assert {**warm[1]["result"], "cached": False} == cold[1]["result"]

    def test_identical_misses_on_two_replicas_both_solve_and_store_one_entry(
        self, payloads, tmp_path
    ):
        """Without the router in front nothing joins the two requests: each
        replica solves, and the directory keeps one whole entry."""
        (first, first_pool), (second, second_pool) = (
            self.replica(tmp_path, delay=0.2), self.replica(tmp_path, delay=0.2)
        )
        with first, second:
            async def scenario():
                return await asyncio.gather(
                    self.solve(first, payloads[0]), self.solve(second, payloads[0])
                )

            answers = asyncio.run(scenario())
        assert [status for status, _body in answers] == [200, 200]
        assert (first_pool.solved, second_pool.solved) == (1, 1)
        fingerprint = job_from_dict(payloads[0]).fingerprint
        assert [path.name for path in tmp_path.iterdir()] == [f"{fingerprint}.json"]
        stored = SolveCache(tmp_path).get(fingerprint)
        assert stored is not None and stored.status == "optimal"
