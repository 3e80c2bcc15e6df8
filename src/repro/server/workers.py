"""The solver thread pool: run each cache-miss job off the gateway event loop.

A :class:`WorkerPool` owns one :class:`~concurrent.futures.ThreadPoolExecutor`
of ``threads`` solver threads, one per CPU core by default.  Every job the
micro-batcher dispatches is one :meth:`WorkerPool.solve` call, one MILP solve
on one of those threads, so the event loop never blocks on a solve; the
micro-batcher runs at most ``threads`` solves at once, so none waits here for
a thread.  The scipy/HiGHS backend
releases the GIL during the search, so the threads solve concurrently.

A job's :func:`~repro.service.executor.execute_job` time limit is clamped to a
tight client budget or, under brown-out, to :data:`MIN_CLAMPED_TIME_LIMIT`.
The pool shares the gateway's :class:`~repro.service.cache.SolveCache`.  A
result is stored before it is returned, so the solve that answers one request
is already the cache hit that answers its repeat inline.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from repro.service.cache import SolveCache
from repro.service.executor import execute_job
from repro.service.jobs import SolveJob
from repro.service.results import JobResult

__all__ = ["WorkerPool", "MIN_CLAMPED_TIME_LIMIT"]

#: Floor on a clamped solver time limit, and every fresh job's limit under
#: brown-out.  The limit starts at model lowering, after the heuristic seed
#: and the build, so a clamped solve still answers with its verified seed (if
#: it has one); the floor is HiGHS's search from it.
MIN_CLAMPED_TIME_LIMIT = 0.05


class WorkerPool:
    """One pool of solver threads; each job is one solve on one thread.

    Parameters
    ----------
    cache:
        Shared solve cache (results land here; the gateway answers repeats
        inline from it).
    threads:
        Solver threads, the most jobs that solve at once; ``None`` is one per
        CPU core.  A solve is CPU-bound, so more threads than cores only
        share the cores: each solve of a burst of distinct misses takes
        longer, and a solve under a time limit gets less of the search.
    brownout:
        Optional zero-argument predicate polled once per job.  While it
        returns ``True`` every fresh job is clamped to
        :data:`MIN_CLAMPED_TIME_LIMIT`, like a job under a tight deadline: an
        answer that proves optimal is cached as usual, any other is flagged
        ``degraded`` — the gateway wires its overload watermark here.
    """

    def __init__(
        self,
        cache: Optional[SolveCache] = None,
        threads: Optional[int] = None,
        brownout: Optional[Callable[[], bool]] = None,
    ) -> None:
        if threads is None:
            threads = os.cpu_count() or 1
        if threads <= 0:
            raise ValueError("threads must be positive")
        self.cache = cache if cache is not None else SolveCache()
        self.threads = threads
        self.brownout = brownout
        self._threads = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-solver"
        )

    # ------------------------------------------------------------------
    async def solve(self, job: SolveJob, budget: Optional[float] = None) -> JobResult:
        """Answer one job on a solver thread.

        A job already in the cache comes back as a ``cached=True`` copy;
        every other job is one MILP solve.  ``budget`` is the remaining
        wall-clock seconds of the job's most impatient waiter (``None``:
        unbudgeted); a budget tighter than the job's own ``time_limit``
        clamps the solver, and a clamped solve that could not prove
        optimality comes back ``degraded`` (and is never cached).
        """
        browned_out = self.brownout is not None and self.brownout()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._threads, self._run, job, self._clamp(job, budget, browned_out)
        )

    def _run(self, job: SolveJob, clamp: Optional[float]) -> JobResult:
        """The solver thread's work: the cache re-check, then the solve."""
        hit = self.cache.get(job.fingerprint)
        if hit is not None:
            return dataclasses.replace(hit, cached=True)
        clamped = job
        if clamp is not None:
            clamped = dataclasses.replace(job, options=job.options.replace(time_limit=clamp))
        return self._finish(job, execute_job(clamped), clamp)

    # ------------------------------------------------------------------
    @staticmethod
    def _clamp(
        job: SolveJob, budget: Optional[float], browned_out: bool
    ) -> Optional[float]:
        """The solver limit a tight client budget or brown-out clamps ``job`` to
        (``None``: no clamp)."""
        if browned_out:
            budget = MIN_CLAMPED_TIME_LIMIT
        limit = job.options.time_limit
        if budget is None or (limit is not None and budget >= limit):
            return None
        return max(budget, MIN_CLAMPED_TIME_LIMIT)

    def _finish(
        self, job: SolveJob, result: JobResult, clamp: Optional[float]
    ) -> JobResult:
        """Key a fresh result by the request fingerprint; flag or cache it.

        A clamp changes the job's content fingerprint, so every result is
        re-keyed to the *request* fingerprint before it is returned.  Clamped
        solves that could not prove optimality are ``degraded`` and never
        cached — a clamped solve that proved optimality anyway did not bind
        and is canonical.  Other non-error results are stored before they are
        returned, so a waiter's repeat request is a hit.
        """
        result = dataclasses.replace(result, fingerprint=job.fingerprint)
        if clamp is not None and result.status != "optimal":
            return dataclasses.replace(result, degraded=True)
        if result.status != "error":
            self.cache.put(result)
        return result

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) wait for running ones."""
        self._threads.shutdown(wait=wait)
