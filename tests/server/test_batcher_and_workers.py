"""Micro-batcher dispatch/dedup/drain and solver-thread execution."""

import asyncio
import dataclasses
import threading
import time

import pytest

from repro.milp import SolverOptions
from repro.server import workers
from repro.server.batcher import MicroBatcher
from repro.server.workers import WorkerPool
from repro.service.cache import SolveCache
from repro.service.jobs import SolveJob
from repro.service.results import JobResult
from repro.workloads.synthetic import SyntheticWorkloadConfig, synthetic_problem


def make_job(seed: int = 0, time_limit: float = 30.0) -> SolveJob:
    problem = synthetic_problem(
        config=SyntheticWorkloadConfig(num_regions=2, seed=seed)
    )
    return SolveJob(problem, options=SolverOptions(time_limit=time_limit, mip_gap=0.1))


def canned_result(job: SolveJob) -> JobResult:
    return JobResult(
        fingerprint=job.fingerprint,
        job_name=job.name,
        status="optimal",
        feasible=True,
        objective=1.0,
        solve_time=0.0,
        wall_time=0.0,
        backend="stub",
        mode=job.mode,
    )


class RecordingSolver:
    """A ``solve`` stub that records each job it starts and answers it with a
    canned result after ``delay`` (or its own entry in ``delays``)."""

    def __init__(self, delay: float = 0.0, fail: bool = False, delays=None) -> None:
        self.solved = []
        self.delay = delay
        self.fail = fail
        self.delays = dict(delays or {})

    async def __call__(self, job, budget=None):
        self.solved.append(job.fingerprint)
        await asyncio.sleep(self.delays.get(job.fingerprint, self.delay))
        if self.fail:
            raise RuntimeError("solver exploded")
        return canned_result(job)


async def until(predicate, ticks: int = 100) -> None:
    """Yield to the loop until ``predicate()`` holds (at most ``ticks`` times)."""
    for _ in range(ticks):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never held")


class TestMicroBatcher:
    def test_duplicates_deduplicated_and_fanned_out(self):
        async def scenario():
            solver = RecordingSolver()
            batcher = MicroBatcher(solver)
            job = make_job(7)
            copies = [make_job(7) for _ in range(3)] + [make_job(8)]
            results = await asyncio.gather(*(batcher.submit(j) for j in copies))
            # 2 unique fingerprints, 2 solves, not 4
            assert solver.solved == [job.fingerprint, make_job(8).fingerprint]
            assert {r.fingerprint for r in results[:3]} == {job.fingerprint}
            # first waiter of a fingerprint pays the solve, the rest are
            # flagged as deduplicated copies
            assert [r.cached for r in results[:3]] == [False, True, True]
            assert results[3].cached is False

        asyncio.run(scenario())

    def test_worker_failure_fails_all_waiters(self):
        async def scenario():
            batcher = MicroBatcher(RecordingSolver(fail=True))
            jobs = [make_job(1), make_job(2)]
            results = await asyncio.gather(
                *(batcher.submit(job) for job in jobs), return_exceptions=True
            )
            assert all(isinstance(r, RuntimeError) for r in results)
            assert batcher.queue_depth == 0

        asyncio.run(scenario())

    def test_queue_depth_tracks_pending_and_inflight(self):
        async def scenario():
            solver = RecordingSolver(delay=0.05)
            batcher = MicroBatcher(solver, limit=1)
            assert batcher.queue_depth == 0
            task_a = asyncio.ensure_future(batcher.submit(make_job(1)))
            await until(lambda: len(solver.solved) == 1)
            assert batcher.queue_depth == 1  # in flight
            task_b = asyncio.ensure_future(batcher.submit(make_job(2)))
            await asyncio.sleep(0.01)
            assert batcher.queue_depth == 2  # one in flight, one pending
            assert len(solver.solved) == 1
            await asyncio.gather(task_a, task_b)
            assert batcher.queue_depth == 0

        asyncio.run(scenario())

    def test_drain_flushes_and_refuses_new_work(self):
        async def scenario():
            solver = RecordingSolver(delay=0.02)
            batcher = MicroBatcher(solver, limit=1)
            running = asyncio.ensure_future(batcher.submit(make_job(3)))
            await until(lambda: len(solver.solved) == 1)
            waiting = asyncio.ensure_future(batcher.submit(make_job(5)))
            await asyncio.sleep(0)  # let the submit enqueue behind the busy thread
            await batcher.drain()
            # drain solved the job still waiting for the thread, too
            assert (await running).status == "optimal"
            assert (await waiting).status == "optimal"
            assert len(solver.solved) == 2
            with pytest.raises(RuntimeError, match="draining"):
                await batcher.submit(make_job(4))

        asyncio.run(scenario())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(RecordingSolver(), limit=0)


class TestDispatch:
    def test_idle_thread_answers_without_waiting(self):
        async def scenario():
            solver = RecordingSolver()
            batcher = MicroBatcher(solver, limit=1)
            task = asyncio.ensure_future(batcher.submit(make_job(1)))
            # a handful of loop ticks, no timer: a window would still be open
            await until(task.done, ticks=10)
            assert task.result().status == "optimal"
            assert len(solver.solved) == 1

        asyncio.run(scenario())

    def test_each_miss_starts_at_once_up_to_the_limit(self):
        async def scenario():
            solver = RecordingSolver(delay=0.1)
            batcher = MicroBatcher(solver, limit=2)
            jobs = [make_job(seed) for seed in (1, 2, 3)]
            tasks = [asyncio.ensure_future(batcher.submit(job)) for job in jobs]
            await until(lambda: len(solver.solved) == 2)
            await asyncio.sleep(0.02)
            # two solves started before any ended; the third waits its turn
            assert solver.solved == [jobs[0].fingerprint, jobs[1].fingerprint]
            await asyncio.gather(*tasks)
            assert solver.solved == [job.fingerprint for job in jobs]

        asyncio.run(scenario())

    def test_freed_thread_starts_the_oldest_pending_job(self):
        async def scenario():
            blocker = make_job(0)
            solver = RecordingSolver(delay=0.05)
            batcher = MicroBatcher(solver, limit=1)
            first = asyncio.ensure_future(batcher.submit(blocker))
            await until(lambda: len(solver.solved) == 1)
            jobs = [make_job(seed) for seed in (1, 2, 3)]
            waiting = []
            for job in jobs:  # on separate ticks, while the thread is busy
                waiting.append(asyncio.ensure_future(batcher.submit(job)))
                await asyncio.sleep(0.005)
            assert len(solver.solved) == 1 and batcher.queue_depth == 4
            await asyncio.gather(first, *waiting)
            # one job per solve, oldest first
            assert solver.solved == [blocker.fingerprint] + [j.fingerprint for j in jobs]

        asyncio.run(scenario())

    def test_repeat_of_an_in_flight_job_is_attached(self):
        async def scenario():
            job = make_job(7)
            solver = RecordingSolver(delay=0.1)
            batcher = MicroBatcher(solver, limit=2)
            first = asyncio.ensure_future(batcher.submit(job))
            await until(lambda: len(solver.solved) == 1)
            assert batcher.holds(job.fingerprint)
            # a free thread is left, yet the repeat joins the running solve
            repeat = await batcher.submit(make_job(7))
            assert (await first).cached is False
            assert repeat.cached is True
            assert solver.solved == [job.fingerprint]
            assert not batcher.holds(job.fingerprint) and batcher.queue_depth == 0

        asyncio.run(scenario())

    def test_each_solve_counts_as_one_batch_of_the_waiters_it_answers(self):
        async def scenario():
            answered = []
            batcher = MicroBatcher(
                RecordingSolver(delay=0.02), limit=1, on_answer=answered.append
            )
            # the blocker takes the only thread; the rest wait for it
            await asyncio.gather(*(batcher.submit(make_job(s)) for s in (0, 1, 1, 1, 2)))
            # two repeats join a solve that is already running
            running = asyncio.ensure_future(batcher.submit(make_job(3)))
            await until(lambda: batcher.holds(make_job(3).fingerprint))
            await asyncio.gather(running, *(batcher.submit(make_job(3)) for _ in range(2)))
            return answered

        assert asyncio.run(scenario()) == [1, 3, 1, 3]

    @pytest.mark.parametrize("started", [False, True], ids=["before-start", "mid-solve"])
    def test_a_cancelled_solve_fails_its_waiters_and_frees_its_thread(self, started):
        stuck, behind = make_job(1), make_job(2)

        async def scenario():
            solver = RecordingSolver(delays={stuck.fingerprint: 30.0})
            batcher = MicroBatcher(solver, limit=1)
            first = asyncio.ensure_future(batcher.submit(stuck))
            repeat = asyncio.ensure_future(batcher.submit(stuck))
            second = asyncio.ensure_future(batcher.submit(behind))
            await until(lambda: len(batcher._tasks) == 1)
            if started:
                await until(lambda: solver.solved)
            (task,) = batcher._tasks
            task.cancel()
            for waiter in (first, repeat):
                with pytest.raises(RuntimeError, match="cancelled"):
                    await asyncio.wait_for(waiter, 1.0)
            # the freed thread took the job behind it
            assert (await asyncio.wait_for(second, 1.0)).fingerprint == behind.fingerprint
            assert batcher.queue_depth == 0

        asyncio.run(scenario())


class TestPerJobAnswers:
    def test_fast_waiter_answered_while_slow_job_runs(self):
        async def scenario():
            fast, slow = make_job(1), make_job(2)
            batcher = MicroBatcher(RecordingSolver(delays={slow.fingerprint: 0.3}))
            fast_task = asyncio.ensure_future(batcher.submit(fast))
            slow_task = asyncio.ensure_future(batcher.submit(slow))
            assert (await fast_task).fingerprint == fast.fingerprint
            assert not slow_task.done()  # still solving
            assert batcher.queue_depth == 1  # the answered job left the queue
            assert (await slow_task).fingerprint == slow.fingerprint
            assert batcher.queue_depth == 0

        asyncio.run(scenario())

    def test_duplicates_answered_on_their_own_delivery(self):
        async def scenario():
            slow = make_job(8)
            batcher = MicroBatcher(RecordingSolver(delays={slow.fingerprint: 0.3}))
            slow_task = asyncio.ensure_future(batcher.submit(slow))
            copies = await asyncio.gather(*(batcher.submit(make_job(7)) for _ in range(3)))
            assert not slow_task.done()
            # the first waiter paid the solve, the rest were deduplicated
            assert [r.cached for r in copies] == [False, True, True]
            assert (await slow_task).cached is False

        asyncio.run(scenario())

    def test_a_failed_solve_fails_only_its_own_waiters(self):
        doomed = make_job(2)

        async def explode_on_doomed(job, budget=None):
            if job.fingerprint == doomed.fingerprint:
                raise RuntimeError("solver exploded")
            return canned_result(job)

        async def scenario():
            batcher = MicroBatcher(explode_on_doomed)
            results = await asyncio.gather(
                *(batcher.submit(make_job(seed)) for seed in (1, 2, 2, 3)),
                return_exceptions=True,
            )
            assert results[0].status == "optimal" and results[3].status == "optimal"
            assert all(isinstance(r, RuntimeError) for r in results[1:3])
            assert batcher.queue_depth == 0

        asyncio.run(scenario())


class TestWorkerPool:
    def test_solves_off_loop_and_caches(self):
        cache = SolveCache()
        pool = WorkerPool(cache=cache, threads=1)
        job = make_job(0, time_limit=30.0)
        result = asyncio.run(pool.solve(job))
        pool.shutdown()
        assert result.status != "error" and not result.cached
        assert job.fingerprint in cache

    def test_error_results_are_never_cached_and_are_retried(self):
        cache = SolveCache()
        pool = WorkerPool(cache=cache, threads=1)
        job = dataclasses.replace(make_job(0), options=SolverOptions(backend="no-such-backend"))

        async def twice():
            return [await pool.solve(job), await pool.solve(job)]

        results = asyncio.run(twice())
        pool.shutdown()
        for result in results:  # the repeat is solved again, and fails again
            assert result.status == "error" and not result.cached
            assert "no-such-backend" in result.error
        assert cache.stats.stores == 0 and job.fingerprint not in cache

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WorkerPool(threads=0)

    def test_one_solver_thread_per_core_by_default(self, monkeypatch):
        monkeypatch.setattr(workers.os, "cpu_count", lambda: 3)
        pool = WorkerPool()
        try:
            assert pool.threads == 3
        finally:
            pool.shutdown()

    def test_gateway_batcher_starts_no_more_solves_than_the_pool_has_threads(self):
        from repro.server.gateway import GatewayConfig, SolveGateway

        gateway = SolveGateway(
            GatewayConfig(port=0, solver_threads=8), worker_pool=WorkerPool(threads=2)
        )
        try:
            assert gateway.batcher.limit == 2
        finally:
            gateway.workers.shutdown()

    def test_tiny_job_answers_first_and_is_cached_on_arrival(self, monkeypatch):
        """Real solves on the solver threads; the slower job is held an
        extra 0.3 s after its solve so the completion order is certain."""
        tiny, slower = make_job(0), make_job(1)
        solve = workers.execute_job

        def slowed(job):
            result = solve(job)
            if job.fingerprint == slower.fingerprint:
                time.sleep(0.3)
            return result

        monkeypatch.setattr(workers, "execute_job", slowed)
        cache = SolveCache()
        pool = WorkerPool(cache=cache, threads=2)

        async def scenario():
            batcher = MicroBatcher(pool.solve, limit=2)
            answered = []

            async def submit(job):
                await batcher.submit(job)
                answered.append(
                    (job.fingerprint, job.fingerprint in cache, slower.fingerprint in cache)
                )

            await asyncio.gather(submit(slower), submit(tiny))
            return answered

        answered = asyncio.run(scenario())
        pool.shutdown()
        # the tiny job came back first, already cached, while the slower
        # one was still out
        assert answered[0] == (tiny.fingerprint, True, False)
        assert answered[1][:2] == (slower.fingerprint, True)

    def test_clamped_and_unclamped_jobs_run_concurrently(self, monkeypatch):
        intervals = {}

        def timed(job):
            started = time.perf_counter()
            time.sleep(0.2)
            intervals[job.options.time_limit] = (started, time.perf_counter())
            return canned_result(job)

        monkeypatch.setattr(workers, "execute_job", timed)
        pool = WorkerPool(cache=SolveCache(), threads=2)
        clamped, free = make_job(1), make_job(2)

        async def scenario():
            return await asyncio.gather(pool.solve(clamped, 5.0), pool.solve(free))

        results = asyncio.run(scenario())
        pool.shutdown()
        assert [r.fingerprint for r in results] == [clamped.fingerprint, free.fingerprint]
        (clamp_start, clamp_end), (free_start, free_end) = intervals[5.0], intervals[30.0]
        assert clamp_start < free_end and free_start < clamp_end  # they overlapped


def recording_solver(calls, status="optimal"):
    """An ``execute_job`` stand-in: records each job's time limit, thread and
    run interval, and answers ``status`` after 0.2 s."""

    def execute(job):
        started = time.perf_counter()
        time.sleep(0.2)
        calls.append((job.options.time_limit, threading.current_thread().name,
                      started, time.perf_counter()))
        return dataclasses.replace(canned_result(job), status=status)

    return execute


async def solve_all(pool, jobs):
    return await asyncio.gather(*(pool.solve(job) for job in jobs))


class TestWorkerPoolBrownout:
    def test_every_fresh_job_clamped_to_the_floor_and_a_hit_served(self, monkeypatch):
        calls = []
        monkeypatch.setattr(workers, "execute_job", recording_solver(calls))
        cache = SolveCache()
        hit = make_job(3)
        cache.put(canned_result(hit))
        pool = WorkerPool(cache=cache, threads=4, brownout=lambda: True)
        fresh = [make_job(1), make_job(2)]
        *solved, answer = asyncio.run(solve_all(pool, fresh + [hit]))
        pool.shutdown()
        assert answer.cached and not answer.degraded
        assert [r.fingerprint for r in solved] == [job.fingerprint for job in fresh]
        assert [limit for limit, *_ in calls] == [workers.MIN_CLAMPED_TIME_LIMIT] * 2

    def test_brownout_is_polled_once_per_job(self, monkeypatch):
        monkeypatch.setattr(workers, "execute_job", canned_result)
        polls = []
        pool = WorkerPool(cache=SolveCache(), brownout=lambda: polls.append(1) or False)
        asyncio.run(solve_all(pool, [make_job(1), make_job(2), make_job(3)]))
        pool.shutdown()
        assert len(polls) == 3

    def test_brown_out_jobs_run_concurrently_on_the_solver_threads(self, monkeypatch):
        calls = []
        monkeypatch.setattr(workers, "execute_job", recording_solver(calls))
        pool = WorkerPool(cache=SolveCache(), threads=2, brownout=lambda: True)
        asyncio.run(solve_all(pool, [make_job(1), make_job(2)]))
        pool.shutdown()
        (_, thread, first_start, first_end), (_, _, second_start, second_end) = calls
        assert first_start < second_end and second_start < first_end  # they overlapped
        assert thread.startswith("repro-solver")

    @pytest.mark.parametrize("status", ["optimal", "feasible"])
    def test_only_an_answer_short_of_optimal_is_degraded_and_uncached(self, monkeypatch, status):
        monkeypatch.setattr(workers, "execute_job", recording_solver([], status=status))
        cache = SolveCache()
        pool = WorkerPool(cache=cache, threads=1, brownout=lambda: True)
        job = make_job(1)
        result = asyncio.run(pool.solve(job))
        pool.shutdown()
        assert result.fingerprint == job.fingerprint
        assert result.degraded is (status != "optimal")
        assert (job.fingerprint in cache) is (status == "optimal")

    def test_heavy_payloads_answer_verified_floorplans_not_annealing(self):
        """Real solves: a browned-out pool answers two heavy instances with
        verified floorplans at objective <= 0.02 (annealing scores ~0.063)."""
        from repro.floorplan.placement import Floorplan
        from repro.floorplan.verify import verify_floorplan
        from repro.server.loadgen import demo_payloads
        from repro.server.protocol import job_from_dict

        jobs = [job_from_dict(payload) for payload in demo_payloads(unique=2, heavy=True)]
        pool = WorkerPool(cache=SolveCache(), threads=2, brownout=lambda: True)
        results = asyncio.run(solve_all(pool, jobs))
        pool.shutdown()
        for job, result in zip(jobs, results):
            assert result.fingerprint == job.fingerprint
            assert result.feasible and result.objective <= 0.02, result
            floorplan = Floorplan.from_dict(job.problem, result.floorplan)
            assert verify_floorplan(floorplan).is_feasible
