"""Deadline propagation end to end: header/body budgets, 504 shedding,
batch-window expiry, and degraded short-budget solves.

The stub-pool tests prove the *expiry* paths never reach the workers; the
final tests run a real slow solve under a sub-second budget and checks the
answer comes back degraded instead of blocking for the full solver budget.
"""

import asyncio
import time

import pytest

from repro.server.batcher import DeadlineExpired, MicroBatcher
from repro.server.gateway import BackgroundGateway, GatewayConfig
from repro.server.loadgen import GatewayClient, demo_payloads

from tests.server.test_gateway_e2e import stub_gateway


@pytest.fixture(scope="module")
def payloads():
    return demo_payloads(unique=2, time_limit=20.0)


def _slow_payload():
    """A 10-region HO instance on a 40x12 device: far more than a second of search."""
    from repro.device.catalog import synthetic_device
    from repro.milp import SolverOptions
    from repro.server.protocol import job_to_dict
    from repro.service.jobs import SolveJob
    from repro.workloads.synthetic import SyntheticWorkloadConfig, synthetic_problem

    problem = synthetic_problem(
        synthetic_device(40, 12, name="deadline-device"),
        SyntheticWorkloadConfig(num_regions=10, utilization=0.5, seed=3),
    )
    job = SolveJob(problem, mode="HO", options=SolverOptions(time_limit=30.0))
    return job_to_dict(job)


class TestGatewayDeadlines:
    def test_expired_header_deadline_sheds_before_solving(self, payloads):
        gw, pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, body = await client.solve(payloads[0], deadline=0.0)
                    return status, body, dict(client.last_headers)

            status, body, headers = asyncio.run(scenario())
        assert status == 504
        assert body["reason"] == "deadline_expired"
        assert body["where"] == "admission"
        assert "retry-after" in headers
        assert pool.solved == 0  # the solver was never invoked
        assert gw.gateway.metrics.deadline_expired == 1

    def test_expired_body_deadline_sheds_after_decode(self, payloads):
        gw, pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    payload = dict(payloads[0])
                    payload["deadline_s"] = -1.0
                    return await client.solve(payload)

            status, body = asyncio.run(scenario())
        assert status == 504
        assert body["where"] == "decode"
        assert pool.solved == 0

    def test_malformed_deadline_is_a_400(self, payloads):
        gw, _pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    return await client.request(
                        "POST", "/solve", payloads[0],
                        extra_headers={"X-Repro-Deadline": "soon"},
                    )

            status, body = asyncio.run(scenario())
        assert status == 400
        assert "deadline" in body["error"]

    def test_deadline_is_fingerprint_neutral(self, payloads):
        # a deadline-carrying request must hit the cache entry stored by a
        # deadline-free request for the same job
        gw, pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    status, first = await client.solve(payloads[0])
                    status2, second = await client.solve(payloads[0], deadline=30.0)
                    return first, second

            first, second = asyncio.run(scenario())
        assert first["cached"] is False and second["cached"] is True
        assert pool.solved == 1

    def test_generous_deadline_solves_normally(self, payloads):
        gw, pool = stub_gateway()
        with gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    return await client.solve(payloads[0], deadline=30.0)

            status, body = asyncio.run(scenario())
        assert status == 200
        assert body["degraded"] is False
        assert pool.solved == 1


class TestBatcherDeadlines:
    def test_deadline_expiring_in_window_drops_the_entry(self):
        from tests.server.test_batcher_and_workers import RecordingSolver, make_job

        async def scenario():
            solver = RecordingSolver()
            batcher = MicroBatcher(solver, max_batch=100, max_wait=0.1)
            # expires long before the 100 ms window closes
            doomed = batcher.submit(make_job(1), deadline=time.monotonic() + 0.01)
            with pytest.raises(DeadlineExpired):
                await doomed
            assert solver.batches == []  # nothing reached the solver

        asyncio.run(scenario())

    def test_live_entries_survive_an_expired_sibling(self):
        from tests.server.test_batcher_and_workers import RecordingSolver, make_job

        async def scenario():
            solver = RecordingSolver()
            batcher = MicroBatcher(solver, max_batch=100, max_wait=0.1)
            doomed = asyncio.ensure_future(
                batcher.submit(make_job(1), deadline=time.monotonic() + 0.01)
            )
            alive = asyncio.ensure_future(
                batcher.submit(make_job(2), deadline=time.monotonic() + 30.0)
            )
            results = await asyncio.gather(doomed, alive, return_exceptions=True)
            assert isinstance(results[0], DeadlineExpired)
            assert results[1].status == "optimal"
            assert len(solver.batches) == 1 and len(solver.batches[0]) == 1
            assert batcher.queue_depth == 0  # accounting survived the drop

        asyncio.run(scenario())

    def test_budgets_thread_through_to_the_solver(self):
        from tests.server.test_batcher_and_workers import make_job

        captured = {}

        class BudgetSolver:
            async def __call__(self, jobs, budgets=None):
                captured.update(budgets or {})
                from tests.server.test_batcher_and_workers import canned_result

                for job in jobs:
                    yield job.fingerprint, canned_result(job)

        async def scenario():
            batcher = MicroBatcher(BudgetSolver(), max_batch=1, max_wait=0.01)
            job = make_job(5)
            await batcher.submit(job, deadline=time.monotonic() + 7.0)
            assert job.fingerprint in captured
            assert 0.0 < captured[job.fingerprint] <= 7.0

        asyncio.run(scenario())


class TestShortBudgetDegrades:
    def test_short_deadline_miss_returns_degraded_not_blocking(self):
        """Acceptance: a slow miss under a ~0.4 s budget answers within the
        budget's order of magnitude, flagged degraded, instead of holding the
        request for the full 30 s solver time limit."""
        payload = _slow_payload()
        config = GatewayConfig(port=0, shards=1, batch_workers=1, executor="serial")
        with BackgroundGateway(config) as gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    started = time.perf_counter()
                    status, body = await client.solve(payload, deadline=0.4)
                    return status, body, time.perf_counter() - started

            status, body, elapsed = asyncio.run(scenario())
        assert status == 200
        assert body["degraded"] is True
        assert body["result"]["degraded"] is True
        assert elapsed < 10.0  # nowhere near the 30 s solver budget
        assert gw.gateway.metrics.degraded == 1

    def test_degraded_results_are_not_cached(self):
        payload = _slow_payload()
        config = GatewayConfig(port=0, shards=1, batch_workers=1, executor="serial")
        with BackgroundGateway(config) as gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    _status, first = await client.solve(payload, deadline=0.4)
                    _status, second = await client.solve(payload, deadline=0.4)
                    return first, second

            first, second = asyncio.run(scenario())
        if first["degraded"]:
            # the clamped answer must not have been stored for the repeat
            assert second["cached"] is False
