"""Worker shards: run solver batches off the gateway event loop.

A :class:`WorkerPool` owns ``shards`` dedicated threads.  Each dispatched
batch occupies one shard thread, so the event loop never blocks on a MILP; the
micro-batcher runs at most ``shards`` batches at once, so none waits here for
a thread.  The shard streams the batch back one job at a time: cache hits
first, then every fresh result the moment its own solve finishes — an
:func:`~repro.service.executor.execute_job` MILP solve (time limit clamped to
a tight client deadline), a :func:`~repro.service.portfolio.run_portfolio`
race, or the brown-out heuristic.  A batch's MILP solves run concurrently, so
no job waits for a slower sibling; races (each already spread over
``batch_workers`` threads) and the GIL-bound heuristic run one after another
on the shard thread.  Either way the micro-batcher answers each job's waiters
as its result arrives.  The shard count bounds concurrent batch execution;
``batch_workers`` bounds intra-batch parallelism, giving
``shards * batch_workers`` as the solver-process/thread ceiling (a race's
abandoned losers finish in the background on top of it).

The pool shares the gateway's :class:`~repro.service.cache.SolveCache`.  A
result is stored before it is yielded, so the solve that answers one request
is already the cache hit that answers its repeat inline.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import AsyncIterator, Callable, Dict, Iterator, List, Optional, Tuple

from repro.service.cache import SolveCache
from repro.service.executor import check_executor, execute_job, make_pool
from repro.service.jobs import SolveJob
from repro.service.results import JobResult

__all__ = ["WorkerPool", "MIN_CLAMPED_TIME_LIMIT"]

SOLVER_KINDS = ("batch", "portfolio")

#: Floor on a deadline-clamped solver time limit: below this the backend
#: cannot even build the model, so the clamp would buy nothing but an error.
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
        Concurrent solves per batch (and threads per portfolio race).
    executor:
        Executor kind inside a shard: ``"thread"`` (default — the scipy/HiGHS
        backend releases the GIL during the solve), ``"process"`` or
        ``"serial"``.
    solver:
        ``"batch"`` (one MILP solve per unique job) or ``"portfolio"`` (race
        the default strategy portfolio per unique job; wins on hard
        instances, costs a full portfolio per job).
    portfolio_deadline:
        Shared wall-clock budget per portfolio race (``solver="portfolio"``).
    brownout:
        Optional zero-argument predicate polled once per batch.  While it
        returns ``True`` the pool serves heuristic-only (annealing) results
        flagged ``degraded`` instead of running MILP solves — the gateway
        wires its overload watermark here.
    """

    def __init__(
        self,
        cache: Optional[SolveCache] = None,
        shards: int = 2,
        batch_workers: Optional[int] = None,
        executor: str = "thread",
        solver: str = "batch",
        portfolio_deadline: Optional[float] = None,
        brownout: Optional[Callable[[], bool]] = None,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        if solver not in SOLVER_KINDS:
            raise ValueError(f"solver must be one of {SOLVER_KINDS}, got {solver!r}")
        check_executor(executor)
        self.cache = cache if cache is not None else SolveCache()
        self.shards = shards
        self.batch_workers = batch_workers
        self.executor = executor
        self.solver = solver
        self.portfolio_deadline = portfolio_deadline
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
        tighter than the job's own ``time_limit`` (the portfolio deadline
        under ``solver="portfolio"``) clamps the solver, and a clamped solve
        that could not prove optimality comes back ``degraded`` (and is never
        cached).  A failure ends the stream by raising, after every result
        that landed before it.
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

        Cache hits come first; every other job becomes one task — a MILP
        solve (time limit clamped to a tight budget), a portfolio race, or
        the brown-out heuristic — and each result is yielded the moment it is
        finished and stored.  A batch's MILP solves run concurrently, clamped
        ones included; races and heuristics run one after another.
        """
        heuristic = self.brownout is not None and self.brownout()
        tasks: List[Tuple[SolveJob, Optional[float]]] = []
        for job in jobs:
            hit = self.cache.get(job.fingerprint)
            if hit is not None:
                yield job.fingerprint, dataclasses.replace(hit, cached=True)
            else:
                tasks.append((job, None if heuristic else self._clamp(job, budgets)))
        # Only MILP solves share a pool.  The brown-out heuristic holds the
        # GIL, so threads would interleave its jobs and delay every answer to
        # the last; a portfolio race already spreads over batch_workers
        # threads, and racing several at once would multiply that ceiling.
        # Those run here one at a time, each yielded the moment it finishes,
        # as does a one-job batch (no point in a pool of one).
        pooled = self.executor != "serial" and self.solver == "batch" and not heuristic
        if not pooled or len(tasks) <= 1:
            for job, clamp in tasks:
                result = self._task(job, clamp, heuristic)()
                yield job.fingerprint, self._finish(job, result, clamp, heuristic)
            return
        with make_pool(self.executor, self.batch_workers, len(tasks)) as pool:
            futures = {
                pool.submit(self._task(job, clamp, heuristic)): (job, clamp)
                for job, clamp in tasks
            }
            for future in as_completed(futures):
                job, clamp = futures[future]
                result = self._finish(job, future.result(), clamp, heuristic)
                yield job.fingerprint, result

    # ------------------------------------------------------------------
    def _clamp(self, job: SolveJob, budgets: Dict[str, float]) -> Optional[float]:
        """The solver limit a client budget clamps ``job`` to (``None``: no clamp)."""
        budget = budgets.get(job.fingerprint)
        if self.solver == "portfolio":
            limit = self.portfolio_deadline
        else:
            limit = job.options.time_limit
        if budget is None or (limit is not None and budget >= limit):
            return None
        return max(budget, MIN_CLAMPED_TIME_LIMIT)

    def _task(
        self, job: SolveJob, clamp: Optional[float], heuristic: bool
    ) -> Callable[[], JobResult]:
        """One job's solve as a zero-argument call (a MILP solve's pickles for a process pool)."""
        if heuristic:
            from repro.service.portfolio import HEURISTIC_STRATEGIES, run_strategy

            return functools.partial(
                run_strategy,
                HEURISTIC_STRATEGIES[0],
                job.problem,
                relocation=job.relocation,
                options=job.options,
                weights=job.weights,
            )
        if self.solver == "portfolio":
            deadline = self.portfolio_deadline if clamp is None else clamp
            return functools.partial(_race, job, deadline, self.batch_workers)
        if clamp is not None:
            job = dataclasses.replace(job, options=job.options.replace(time_limit=clamp))
        return functools.partial(execute_job, job)

    def _finish(
        self,
        job: SolveJob,
        result: JobResult,
        clamp: Optional[float],
        heuristic: bool,
    ) -> JobResult:
        """Key a fresh result by the request fingerprint; flag or cache it.

        A clamp changes the job's content fingerprint, and a portfolio or
        heuristic answer carries its strategy's, so every result is re-keyed
        to the *request* fingerprint before it is yielded.  Heuristic answers
        and clamped solves that could not prove optimality are ``degraded``
        and never cached — a clamped solve that proved optimality anyway did
        not bind and is canonical.  Other non-error results are stored
        before they are yielded, so a waiter's repeat request is a hit.
        """
        result = dataclasses.replace(result, fingerprint=job.fingerprint)
        if heuristic or (clamp is not None and result.status != "optimal"):
            return dataclasses.replace(result, degraded=True)
        if result.status != "error":
            self.cache.put(result)
        return result

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting batches and (optionally) wait for running ones."""
        self._threads.shutdown(wait=wait)


def _race(job: SolveJob, deadline: Optional[float], max_workers: Optional[int]) -> JobResult:
    """Race the default portfolio on ``job``: the first feasible plan wins."""
    from repro.service.portfolio import run_portfolio

    race = run_portfolio(
        job.problem,
        relocation=job.relocation,
        options=job.options,
        weights=job.weights,
        deadline=deadline,
        policy="first_feasible",
        executor="thread",
        max_workers=max_workers,
    )
    if race.winner_result is not None:
        return race.winner_result
    # no strategy produced a feasible plan: surface the best attempt (sorted
    # like the portfolio's own "best" policy)
    outcomes = sorted(race.outcomes.values(), key=lambda r: r.objective_key())
    return outcomes[0] if outcomes else JobResult.failure(job, "portfolio produced no outcome")
