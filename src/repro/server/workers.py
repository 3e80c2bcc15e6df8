"""Worker shards: run solver batches off the gateway event loop.

A :class:`WorkerPool` owns ``shards`` dedicated threads.  Each dispatched
batch occupies one shard thread, so the event loop never blocks on a MILP; the
micro-batcher runs at most ``shards`` batches at once, so none waits here for
a thread.  The shard streams the batch back one job at a time: cache hits
first, then every fresh result the moment its own
:func:`~repro.service.executor.execute_job` MILP solve finishes, its time
limit clamped to a tight client deadline or, under brown-out, to
:data:`MIN_CLAMPED_TIME_LIMIT`.  A batch's solves run concurrently on one
thread pool, so no job waits for a slower sibling, and the micro-batcher
answers each job's waiters as its result arrives.  The shard count bounds
concurrent batch execution; ``batch_workers`` bounds intra-batch
parallelism, giving ``shards * batch_workers`` as the solver thread ceiling.

The pool shares the gateway's :class:`~repro.service.cache.SolveCache`.  A
result is stored before it is yielded, so the solve that answers one request
is already the cache hit that answers its repeat inline.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import AsyncIterator, Callable, Dict, Iterator, List, Optional, Tuple

from repro.service.cache import SolveCache
from repro.service.executor import execute_job, make_pool
from repro.service.jobs import SolveJob
from repro.service.results import JobResult

__all__ = ["WorkerPool", "MIN_CLAMPED_TIME_LIMIT"]

#: Floor on a clamped solver time limit, and every fresh job's limit under
#: brown-out.  The limit starts at model lowering, after the heuristic seed
#: and the build, so a clamped solve still answers with its verified seed (if
#: it has one); the floor is HiGHS's search from it.
MIN_CLAMPED_TIME_LIMIT = 0.05


class WorkerPool:
    """A fixed pool of shard threads executing solve batches.

    Parameters
    ----------
    cache:
        Shared solve cache (results land here; the gateway answers repeats
        inline from it).
    shards:
        Number of batches that may execute concurrently.
    batch_workers:
        Concurrent MILP solves per batch (default ``os.cpu_count()``).  The
        scipy/HiGHS backend releases the GIL during the solve, so a batch's
        solves share one thread pool.
    brownout:
        Optional zero-argument predicate polled once per batch.  While it
        returns ``True`` every fresh job is clamped to
        :data:`MIN_CLAMPED_TIME_LIMIT`, like a job under a tight deadline: an
        answer that proves optimal is cached as usual, any other is flagged
        ``degraded`` — the gateway wires its overload watermark here.
    """

    def __init__(
        self,
        cache: Optional[SolveCache] = None,
        shards: int = 2,
        batch_workers: Optional[int] = None,
        brownout: Optional[Callable[[], bool]] = None,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.cache = cache if cache is not None else SolveCache()
        self.shards = shards
        self.batch_workers = batch_workers
        self.brownout = brownout
        self._threads = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="repro-shard"
        )

    # ------------------------------------------------------------------
    async def solve_batch(
        self, jobs: List[SolveJob], budgets: Optional[Dict[str, float]] = None
    ) -> AsyncIterator[Tuple[str, JobResult]]:
        """Solve one (already deduplicated) batch on a shard thread.

        Yields ``(fingerprint, result)`` on the event loop as each job
        finishes, in completion order.  ``budgets`` maps fingerprints to the
        remaining wall-clock seconds of the most impatient waiter; a budget
        tighter than the job's own ``time_limit`` clamps the solver, and a
        clamped solve that could not prove optimality comes back ``degraded``
        (and is never cached).  A failure ends the stream by raising, after
        every result that landed before it.
        """
        loop = asyncio.get_running_loop()
        arrivals: asyncio.Queue = asyncio.Queue()
        jobs, budgets = list(jobs), dict(budgets or {})

        def pump() -> None:
            try:
                for item in self._iter_results(jobs, budgets):
                    loop.call_soon_threadsafe(arrivals.put_nowait, item)
            finally:
                loop.call_soon_threadsafe(arrivals.put_nowait, None)

        shard = loop.run_in_executor(self._threads, pump)
        while (item := await arrivals.get()) is not None:
            yield item
        await shard  # re-raise the failure that ended the stream, if any

    def _iter_results(
        self, jobs: List[SolveJob], budgets: Dict[str, float]
    ) -> Iterator[Tuple[str, JobResult]]:
        """The shard thread's per-job result stream.

        Cache hits come first; every other job becomes one MILP solve, its
        time limit clamped to a tight budget or, under brown-out, to
        :data:`MIN_CLAMPED_TIME_LIMIT`.  Each result is yielded the moment it
        is finished and stored; a batch's solves run concurrently.
        """
        browned_out = self.brownout is not None and self.brownout()
        tasks: List[Tuple[SolveJob, Optional[float]]] = []
        for job in jobs:
            hit = self.cache.get(job.fingerprint)
            if hit is not None:
                yield job.fingerprint, dataclasses.replace(hit, cached=True)
            else:
                tasks.append((job, self._clamp(job, budgets, browned_out)))
        if len(tasks) <= 1:  # no point in a pool of one
            for job, clamp in tasks:
                yield job.fingerprint, self._finish(job, self._solve(job, clamp), clamp)
            return
        with make_pool("thread", self.batch_workers, len(tasks)) as pool:
            futures = {
                pool.submit(self._solve, job, clamp): (job, clamp) for job, clamp in tasks
            }
            for future in as_completed(futures):
                job, clamp = futures[future]
                yield job.fingerprint, self._finish(job, future.result(), clamp)

    # ------------------------------------------------------------------
    @staticmethod
    def _clamp(
        job: SolveJob, budgets: Dict[str, float], browned_out: bool
    ) -> Optional[float]:
        """The solver limit a tight client budget or brown-out clamps ``job`` to
        (``None``: no clamp)."""
        budget = MIN_CLAMPED_TIME_LIMIT if browned_out else budgets.get(job.fingerprint)
        limit = job.options.time_limit
        if budget is None or (limit is not None and budget >= limit):
            return None
        return max(budget, MIN_CLAMPED_TIME_LIMIT)

    @staticmethod
    def _solve(job: SolveJob, clamp: Optional[float]) -> JobResult:
        """Run ``job``'s MILP solve, its time limit cut to ``clamp`` if set."""
        if clamp is not None:
            job = dataclasses.replace(job, options=job.options.replace(time_limit=clamp))
        return execute_job(job)

    def _finish(
        self, job: SolveJob, result: JobResult, clamp: Optional[float]
    ) -> JobResult:
        """Key a fresh result by the request fingerprint; flag or cache it.

        A clamp changes the job's content fingerprint, so every result is
        re-keyed to the *request* fingerprint before it is yielded.  Clamped
        solves that could not prove optimality are ``degraded`` and never
        cached — a clamped solve that proved optimality anyway did not bind
        and is canonical.  Other non-error results are stored before they are
        yielded, so a waiter's repeat request is a hit.
        """
        result = dataclasses.replace(result, fingerprint=job.fingerprint)
        if clamp is not None and result.status != "optimal":
            return dataclasses.replace(result, degraded=True)
        if result.status != "error":
            self.cache.put(result)
        return result

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting batches and (optionally) wait for running ones."""
        self._threads.shutdown(wait=wait)
