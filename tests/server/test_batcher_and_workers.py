"""Micro-batcher slot dispatch/dedup/drain and worker-shard execution."""

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
from repro.service.executor import BatchSolver
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
    """A solve_batch stub that records batches and streams canned results."""

    def __init__(self, delay: float = 0.0, fail: bool = False) -> None:
        self.batches = []
        self.delay = delay
        self.fail = fail

    async def __call__(self, jobs, budgets=None):
        self.batches.append([job.fingerprint for job in jobs])
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail:
            raise RuntimeError("shard exploded")
        for job in jobs:
            yield job.fingerprint, canned_result(job)


class StreamingSolver:
    """A solve_batch stub whose jobs wait out their own delays concurrently,
    each result streaming back the moment its delay ends."""

    def __init__(self, delays=None) -> None:
        self.delays = dict(delays or {})

    async def __call__(self, jobs, budgets=None):
        async def solve(job):
            await asyncio.sleep(self.delays.get(job.fingerprint, 0.0))
            return canned_result(job)

        for landed in asyncio.as_completed([solve(job) for job in jobs]):
            result = await landed
            yield result.fingerprint, result


async def until(predicate, ticks: int = 100) -> None:
    """Yield to the loop until ``predicate()`` holds (at most ``ticks`` times)."""
    for _ in range(ticks):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never held")


class TestMicroBatcher:
    def test_same_tick_submissions_share_a_batch(self):
        async def scenario():
            solver = RecordingSolver()
            batcher = MicroBatcher(solver, max_batch=3)
            jobs = [make_job(seed) for seed in range(3)]
            results = await asyncio.gather(*(batcher.submit(job) for job in jobs))
            assert len(solver.batches) == 1  # one dispatch on the next tick
            assert sorted(solver.batches[0]) == sorted(j.fingerprint for j in jobs)
            assert [r.fingerprint for r in results] == [j.fingerprint for j in jobs]

        asyncio.run(scenario())

    def test_duplicates_deduplicated_and_fanned_out(self):
        async def scenario():
            solver = RecordingSolver()
            batcher = MicroBatcher(solver, max_batch=4)
            job = make_job(7)
            copies = [make_job(7) for _ in range(3)] + [make_job(8)]
            results = await asyncio.gather(*(batcher.submit(j) for j in copies))
            # the batch carried 2 unique fingerprints, not 4
            assert len(solver.batches) == 1
            assert len(solver.batches[0]) == 2
            assert {r.fingerprint for r in results[:3]} == {job.fingerprint}
            # first waiter of a fingerprint pays the solve, the rest are
            # flagged as deduplicated copies
            assert [r.cached for r in results[:3]] == [False, True, True]
            assert results[3].cached is False

        asyncio.run(scenario())

    def test_worker_failure_fails_all_waiters(self):
        async def scenario():
            batcher = MicroBatcher(RecordingSolver(fail=True), max_batch=2)
            jobs = [make_job(1), make_job(2)]
            results = await asyncio.gather(
                *(batcher.submit(job) for job in jobs), return_exceptions=True
            )
            assert all(isinstance(r, RuntimeError) for r in results)

        asyncio.run(scenario())

    def test_queue_depth_tracks_pending_and_inflight(self):
        async def scenario():
            solver = RecordingSolver(delay=0.05)
            batcher = MicroBatcher(solver, max_batch=2, slots=1)
            assert batcher.queue_depth == 0
            task_a = asyncio.ensure_future(batcher.submit(make_job(1)))
            await until(lambda: len(solver.batches) == 1)
            assert batcher.queue_depth == 1  # in flight
            task_b = asyncio.ensure_future(batcher.submit(make_job(2)))
            await asyncio.sleep(0.01)
            assert batcher.queue_depth == 2  # one in flight, one pending
            assert len(solver.batches) == 1
            await asyncio.gather(task_a, task_b)
            assert batcher.queue_depth == 0

        asyncio.run(scenario())

    def test_drain_flushes_and_refuses_new_work(self):
        async def scenario():
            solver = RecordingSolver(delay=0.02)
            batcher = MicroBatcher(solver, max_batch=100, slots=1)
            running = asyncio.ensure_future(batcher.submit(make_job(3)))
            await until(lambda: len(solver.batches) == 1)
            waiting = asyncio.ensure_future(batcher.submit(make_job(5)))
            await asyncio.sleep(0)  # let the submit enqueue behind the busy slot
            await batcher.drain()
            # drain solved the job still waiting for the slot, too
            assert (await running).status == "optimal"
            assert (await waiting).status == "optimal"
            assert len(solver.batches) == 2
            with pytest.raises(RuntimeError, match="draining"):
                await batcher.submit(make_job(4))

        asyncio.run(scenario())

    def test_invalid_parameters(self):
        solver = RecordingSolver()
        with pytest.raises(ValueError):
            MicroBatcher(solver, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(solver, slots=0)


class TestSlotDispatch:
    def test_idle_slot_answers_without_waiting(self):
        async def scenario():
            solver = RecordingSolver()
            batcher = MicroBatcher(solver, slots=1)
            task = asyncio.ensure_future(batcher.submit(make_job(1)))
            # a handful of loop ticks, no timer: a window would still be open
            await until(task.done, ticks=10)
            assert task.result().status == "optimal"
            assert len(solver.batches) == 1

        asyncio.run(scenario())

    def test_busy_slot_sends_the_next_three_as_one_batch(self):
        async def scenario():
            blocker = make_job(0)
            solver = RecordingSolver(delay=0.2)
            batcher = MicroBatcher(solver, max_batch=8, slots=1)
            first = asyncio.ensure_future(batcher.submit(blocker))
            await until(lambda: len(solver.batches) == 1)
            jobs = [make_job(seed) for seed in (1, 2, 3)]
            waiting = []
            for job in jobs:  # on separate ticks, while the slot is busy
                waiting.append(asyncio.ensure_future(batcher.submit(job)))
                await asyncio.sleep(0.01)
            assert len(solver.batches) == 1 and batcher.queue_depth == 4
            await asyncio.gather(first, *waiting)
            assert solver.batches == [
                [blocker.fingerprint], [job.fingerprint for job in jobs]
            ]

        asyncio.run(scenario())

    def test_max_batch_caps_each_batch_a_freed_slot_takes(self):
        async def scenario():
            solver = RecordingSolver(delay=0.05)
            batcher = MicroBatcher(solver, max_batch=2, slots=1)
            first = asyncio.ensure_future(batcher.submit(make_job(0)))
            await until(lambda: len(solver.batches) == 1)
            rest = [asyncio.ensure_future(batcher.submit(make_job(s))) for s in range(1, 6)]
            await asyncio.gather(first, *rest)
            assert [len(batch) for batch in solver.batches] == [1, 2, 2, 1]

        asyncio.run(scenario())

    def test_repeat_of_an_in_flight_job_is_attached(self):
        async def scenario():
            job = make_job(7)
            solver = RecordingSolver(delay=0.1)
            batcher = MicroBatcher(solver, slots=2)
            first = asyncio.ensure_future(batcher.submit(job))
            await until(lambda: len(solver.batches) == 1)
            assert batcher.holds(job.fingerprint)
            # a free slot is left, yet the repeat joins the running solve
            repeat = await batcher.submit(make_job(7))
            assert (await first).cached is False
            assert repeat.cached is True
            assert solver.batches == [[job.fingerprint]]
            assert not batcher.holds(job.fingerprint) and batcher.queue_depth == 0

        asyncio.run(scenario())


class TestStreamingDelivery:
    def test_fast_waiter_answered_while_slow_job_runs(self):
        async def scenario():
            fast, slow = make_job(1), make_job(2)
            batcher = MicroBatcher(
                StreamingSolver({slow.fingerprint: 0.3}), max_batch=2
            )
            fast_task = asyncio.ensure_future(batcher.submit(fast))
            slow_task = asyncio.ensure_future(batcher.submit(slow))
            assert (await fast_task).fingerprint == fast.fingerprint
            assert not slow_task.done()  # same batch, still solving
            assert batcher.queue_depth == 1  # the answered job left the queue
            assert (await slow_task).fingerprint == slow.fingerprint
            assert batcher.queue_depth == 0

        asyncio.run(scenario())

    def test_duplicates_answered_on_their_own_delivery(self):
        async def scenario():
            slow = make_job(8)
            batcher = MicroBatcher(
                StreamingSolver({slow.fingerprint: 0.3}), max_batch=4
            )
            slow_task = asyncio.ensure_future(batcher.submit(slow))
            copies = await asyncio.gather(*(batcher.submit(make_job(7)) for _ in range(3)))
            assert not slow_task.done()
            # the first waiter paid the solve, the rest were deduplicated
            assert [r.cached for r in copies] == [False, True, True]
            assert (await slow_task).cached is False

        asyncio.run(scenario())

    def test_failure_after_one_delivery_fails_only_the_rest(self):
        async def explode_after_one(jobs, budgets=None):
            yield jobs[0].fingerprint, canned_result(jobs[0])
            raise RuntimeError("shard exploded mid-batch")

        async def scenario():
            batcher = MicroBatcher(explode_after_one, max_batch=3)
            results = await asyncio.gather(
                *(batcher.submit(make_job(seed)) for seed in (1, 2, 3)),
                return_exceptions=True,
            )
            assert results[0].status == "optimal"  # delivered before the crash
            assert all(isinstance(r, RuntimeError) for r in results[1:])
            assert batcher.queue_depth == 0

        asyncio.run(scenario())


class TestWorkerPool:
    def test_solves_batch_off_loop_and_caches(self):
        cache = SolveCache()
        pool = WorkerPool(cache=cache, shards=1)
        job = make_job(0, time_limit=30.0)

        async def scenario():
            return {fp: result async for fp, result in pool.solve_batch([job])}

        results = asyncio.run(scenario())
        result = results[job.fingerprint]
        assert result.status != "error"
        assert job.fingerprint in cache
        pool.shutdown()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WorkerPool(shards=0)

    def test_mistyped_executor_is_rejected_not_run_as_a_process_pool(self):
        with pytest.raises(ValueError, match="executor must be one of"):
            BatchSolver(executor="threads")

    def test_tiny_job_streams_first_and_is_cached_on_arrival(self, monkeypatch):
        """Real solves on a shard's thread pool; the slower job is held an
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
        pool = WorkerPool(cache=cache, shards=1, batch_workers=2)

        async def scenario():
            batcher = MicroBatcher(pool.solve_batch, max_batch=2, slots=1)
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
        pool = WorkerPool(cache=SolveCache(), shards=1, batch_workers=2)
        clamped, free = make_job(1), make_job(2)

        async def scenario():
            stream = pool.solve_batch([clamped, free], {clamped.fingerprint: 5.0})
            return {fp: result async for fp, result in stream}

        results = asyncio.run(scenario())
        pool.shutdown()
        assert set(results) == {clamped.fingerprint, free.fingerprint}
        (clamp_start, clamp_end), (free_start, free_end) = intervals[5.0], intervals[30.0]
        assert clamp_start < free_end and free_start < clamp_end  # they overlapped


async def collect(stream):
    return [item async for item in stream]


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


class TestWorkerPoolBrownout:
    def test_hits_first_then_every_fresh_job_clamped_to_the_floor(self, monkeypatch):
        calls = []
        monkeypatch.setattr(workers, "execute_job", recording_solver(calls))
        cache = SolveCache()
        hit = make_job(3)
        cache.put(canned_result(hit))
        pool = WorkerPool(cache=cache, shards=1, batch_workers=4, brownout=lambda: True)
        fresh = [make_job(1), make_job(2)]
        results = asyncio.run(collect(pool.solve_batch(fresh + [hit])))
        pool.shutdown()
        (first, answer), *rest = results
        assert first == hit.fingerprint and answer.cached and not answer.degraded
        assert {fp for fp, _ in rest} == {job.fingerprint for job in fresh}
        assert [limit for limit, *_ in calls] == [workers.MIN_CLAMPED_TIME_LIMIT] * 2

    def test_a_batch_of_brown_out_jobs_runs_concurrently(self, monkeypatch):
        calls = []
        monkeypatch.setattr(workers, "execute_job", recording_solver(calls))
        pool = WorkerPool(cache=SolveCache(), shards=1, batch_workers=2, brownout=lambda: True)
        asyncio.run(collect(pool.solve_batch([make_job(1), make_job(2)])))
        pool.shutdown()
        (_, thread, first_start, first_end), (_, _, second_start, second_end) = calls
        assert first_start < second_end and second_start < first_end  # they overlapped
        assert not thread.startswith("repro-shard")  # on the batch's pool

    @pytest.mark.parametrize("status", ["optimal", "feasible"])
    def test_only_an_answer_short_of_optimal_is_degraded_and_uncached(self, monkeypatch, status):
        monkeypatch.setattr(workers, "execute_job", recording_solver([], status=status))
        cache = SolveCache()
        pool = WorkerPool(cache=cache, shards=1, brownout=lambda: True)
        job = make_job(1)
        [(fingerprint, result)] = asyncio.run(collect(pool.solve_batch([job])))
        pool.shutdown()
        assert fingerprint == result.fingerprint == job.fingerprint
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
        pool = WorkerPool(cache=SolveCache(), shards=1, batch_workers=2, brownout=lambda: True)
        results = dict(asyncio.run(collect(pool.solve_batch(jobs))))
        pool.shutdown()
        for job in jobs:
            result = results[job.fingerprint]
            assert result.feasible and result.objective <= 0.02, result
            floorplan = Floorplan.from_dict(job.problem, result.floorplan)
            assert verify_floorplan(floorplan).is_feasible
