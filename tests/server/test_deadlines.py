"""Deadline propagation end to end: header/body budgets, 504 shedding,
expiry while waiting for a solver slot, and degraded short-budget solves.

The stub-pool tests prove the *expiry* paths never reach the workers; the
final tests run a real slow solve under a sub-second budget and checks the
answer comes back degraded instead of blocking for the full solver budget.
"""

import asyncio
import time

import pytest

from repro.server import workers
from repro.server.batcher import DeadlineExpired, MicroBatcher
from repro.server.gateway import BackgroundGateway, GatewayConfig
from repro.server.loadgen import GatewayClient, demo_payloads
from repro.server.protocol import job_from_dict
from repro.service.cache import SolveCache
from repro.service.results import JobResult

from tests.server.test_gateway_e2e import StubWorkerPool, stub_gateway


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
    def test_deadline_expiring_while_the_slot_is_busy_drops_the_entry(self):
        from tests.server.test_batcher_and_workers import RecordingSolver, make_job, until

        async def scenario():
            solver = RecordingSolver(delay=0.1)
            batcher = MicroBatcher(solver, max_batch=100, slots=1)
            blocker = asyncio.ensure_future(batcher.submit(make_job(0)))
            await until(lambda: len(solver.batches) == 1)
            # expires long before the 100 ms solve frees the slot
            doomed = batcher.submit(make_job(1), deadline=time.monotonic() + 0.01)
            with pytest.raises(DeadlineExpired):
                await doomed
            await blocker
            assert len(solver.batches) == 1  # the doomed job reached no solver
            assert batcher.queue_depth == 0

        asyncio.run(scenario())

    def test_live_entries_survive_an_expired_sibling(self):
        from tests.server.test_batcher_and_workers import RecordingSolver, make_job, until

        async def scenario():
            solver = RecordingSolver(delay=0.1)
            batcher = MicroBatcher(solver, max_batch=100, slots=1)
            blocker = asyncio.ensure_future(batcher.submit(make_job(0)))
            await until(lambda: len(solver.batches) == 1)
            doomed = asyncio.ensure_future(
                batcher.submit(make_job(1), deadline=time.monotonic() + 0.01)
            )
            alive = asyncio.ensure_future(
                batcher.submit(make_job(2), deadline=time.monotonic() + 30.0)
            )
            results = await asyncio.gather(blocker, doomed, alive, return_exceptions=True)
            assert isinstance(results[1], DeadlineExpired)
            assert results[2].status == "optimal"
            assert len(solver.batches) == 2 and len(solver.batches[1]) == 1
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
            batcher = MicroBatcher(BudgetSolver(), max_batch=1)
            job = make_job(5)
            await batcher.submit(job, deadline=time.monotonic() + 7.0)
            assert job.fingerprint in captured
            assert 0.0 < captured[job.fingerprint] <= 7.0

        asyncio.run(scenario())

    def test_waiter_for_a_busy_slot_leaves_at_its_own_deadline(self):
        from tests.server.test_batcher_and_workers import RecordingSolver, make_job, until

        async def scenario():
            solver = RecordingSolver(delay=1.0)
            batcher = MicroBatcher(solver, max_batch=100, slots=1)
            blocker = asyncio.ensure_future(batcher.submit(make_job(0)))
            await until(lambda: len(solver.batches) == 1)
            started = time.monotonic()
            with pytest.raises(DeadlineExpired):
                await batcher.submit(make_job(1), deadline=started + 0.1)
            assert time.monotonic() - started < 0.5  # not when the slot frees
            assert batcher.queue_depth == 1
            assert not batcher.holds(make_job(1).fingerprint)
            await blocker
            assert len(solver.batches) == 1  # the expired job was never solved

        asyncio.run(scenario())

    def test_joiner_of_a_running_solve_leaves_at_its_own_deadline(self):
        """A repeat's budget cannot clamp a solve already running, so the
        repeat must not wait that solve out past its own deadline."""
        from tests.server.test_batcher_and_workers import RecordingSolver, make_job, until

        async def scenario():
            solver = RecordingSolver(delay=1.0)
            batcher = MicroBatcher(solver, max_batch=100, slots=2)
            running = asyncio.ensure_future(batcher.submit(make_job(0)))
            await until(lambda: len(solver.batches) == 1)
            started = time.monotonic()
            with pytest.raises(DeadlineExpired):
                await batcher.submit(make_job(0), deadline=started + 0.1)
            assert time.monotonic() - started < 0.5  # not the 1 s solve
            assert batcher.queue_depth == 1  # only the first waiter is left
            result = await running
            assert result.status == "optimal" and not result.cached
            assert len(solver.batches) == 1 and batcher.queue_depth == 0

        asyncio.run(scenario())


class TestJoinerDeadline:
    @pytest.mark.parametrize("with_directory", [False, True], ids=["memory", "directory"])
    def test_repeat_joining_a_slow_solve_gets_504_on_time(
        self, payloads, tmp_path, with_directory
    ):
        """A repeat with a 0.2 s budget that joins a 1 s solve in flight is
        answered 504 at its own deadline, with or without a cache directory."""
        cache = SolveCache(tmp_path if with_directory else None)
        pool = StubWorkerPool(cache, delay=1.0)
        fingerprint = job_from_dict(payloads[0]).fingerprint
        with BackgroundGateway(
            config=GatewayConfig(port=0), cache=cache, worker_pool=pool
        ) as gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as first, \
                        GatewayClient(gw.host, gw.port) as second:
                    running = asyncio.ensure_future(first.solve(payloads[0]))
                    while not gw.gateway.batcher.holds(fingerprint):
                        await asyncio.sleep(0.005)
                    sent = time.monotonic()
                    status, body = await second.solve(payloads[0], deadline=0.2)
                    waited = time.monotonic() - sent
                    return (status, body, waited), await running

            (status, body, waited), (first_status, first_body) = asyncio.run(scenario())
        assert status == 504 and body["where"] == "batch"
        assert waited < 0.6  # the solve it joined takes 1 s
        assert first_status == 200 and first_body["cached"] is False
        assert pool.solved == 1


class TestDeadlinesAtDispatch:
    """One shard, busy with a slow first job, while a budgeted job waits.

    The budget is checked, and the solver clamp computed, when the shard
    takes the waiting job, not when it was first queued.
    """

    BLOCK_S = 0.5

    def _serve(self, monkeypatch, payloads, second_deadline):
        blocker, budgeted = (job_from_dict(payload) for payload in payloads)
        calls = []

        def execute(job):
            calls.append((job.name, job.options.time_limit, time.monotonic()))
            if job.name == blocker.name:
                time.sleep(self.BLOCK_S)
            return JobResult(
                fingerprint=job.fingerprint, job_name=job.name, status="optimal",
                feasible=True, objective=1.0, solve_time=0.0, wall_time=0.0,
                backend="stub", mode=job.mode,
            )

        monkeypatch.setattr(workers, "execute_job", execute)
        config = GatewayConfig(port=0, shards=1, batch_workers=1)
        with BackgroundGateway(config) as gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as first, \
                        GatewayClient(gw.host, gw.port) as second:
                    running = asyncio.ensure_future(first.solve(payloads[0]))
                    while not calls:  # the blocker holds the only shard
                        await asyncio.sleep(0.005)
                    sent = time.monotonic()
                    status, body = await second.solve(payloads[1], deadline=second_deadline)
                    await running
                    return sent, status, body

            sent, status, body = asyncio.run(scenario())
        reached = {name: (limit, at) for name, limit, at in calls}
        return sent, status, body, reached.get(budgeted.name)

    def test_budget_spent_waiting_for_the_shard_expires_unsolved(self, monkeypatch, payloads):
        _sent, status, body, call = self._serve(monkeypatch, payloads, 0.2)
        assert status == 504
        assert body["where"] == "batch"
        assert call is None  # never reached the solver

    def test_clamp_is_the_budget_left_at_dispatch(self, monkeypatch, payloads):
        sent, status, body, call = self._serve(monkeypatch, payloads, 2.0)
        assert status == 200, body
        clamp, called_at = call
        left = sent + 2.0 - called_at
        assert left < 2.0 - self.BLOCK_S + 0.1  # it did wait behind the blocker
        # the slack covers the hop to the gateway and to the shard thread; a
        # clamp taken when the job was queued is BLOCK_S larger
        assert clamp <= left + 0.2


class TestShortBudgetDegrades:
    def test_short_deadline_miss_returns_degraded_not_blocking(self):
        """Acceptance: a slow miss under a ~0.4 s budget answers within the
        budget's order of magnitude, flagged degraded, instead of holding the
        request for the full 30 s solver time limit."""
        payload = _slow_payload()
        config = GatewayConfig(port=0, shards=1, batch_workers=1)
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

    def test_brownout_answers_the_deadline_instance_with_its_verified_seed(self):
        """Past the watermark the slow miss is clamped like a tight deadline:
        it answers within seconds with a verified floorplan no worse than
        its HO seed (objective 0.224601), flagged degraded."""
        from repro.floorplan.placement import Floorplan
        from repro.floorplan.verify import verify_floorplan

        payload = _slow_payload()
        # the queue depth is 1 while the job's batch runs: brown-out holds
        config = GatewayConfig(port=0, shards=1, batch_workers=1, brownout_watermark=1)
        with BackgroundGateway(config) as gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    return await client.solve(payload)

            status, body = asyncio.run(scenario())
        assert status == 200, body
        result = body["result"]
        assert body["degraded"] is True and result["feasible"] is True
        assert result["objective"] <= 0.224601
        floorplan = Floorplan.from_dict(job_from_dict(payload).problem, result["floorplan"])
        assert verify_floorplan(floorplan).is_feasible

    def test_degraded_results_are_not_cached(self):
        payload = _slow_payload()
        config = GatewayConfig(port=0, shards=1, batch_workers=1)
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
