"""Parallel batch execution of solve jobs.

:class:`BatchSolver` fans a list of :class:`~repro.service.jobs.SolveJob`
across a :class:`concurrent.futures` pool, deduplicates jobs with identical
fingerprints (each unique job is solved exactly once per batch), serves
previously-solved jobs from the content-addressed cache and streams results
back in completion order.

The worker entry point is the module-level :func:`execute_job`, which wraps
the pure :func:`repro.floorplan.solver.run_job` and converts the portable
report into a flat :class:`~repro.service.results.JobResult`; exceptions are
captured into error results so a failing job never takes the pool down.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.floorplan.solver import run_job
from repro.service.cache import SolveCache
from repro.service.jobs import SolveJob
from repro.service.results import JobResult, SweepReport
from repro.utils.timing import Timer

EXECUTOR_KINDS = ("process", "thread", "serial")


def check_executor(executor: str) -> None:
    """Reject an executor kind outside :data:`EXECUTOR_KINDS`."""
    if executor not in EXECUTOR_KINDS:
        raise ValueError(f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}")


def execute_job(job: SolveJob) -> JobResult:
    """Solve one job and flatten the outcome (pool-worker entry point)."""
    worker = f"pid-{os.getpid()}"
    timer = Timer()
    try:
        with timer:
            report = run_job(job)
    except Exception as exc:  # noqa: BLE001 — error results must cross the pipe
        return JobResult.failure(
            job, f"{type(exc).__name__}: {exc}", wall_time=timer.elapsed, worker=worker
        )
    return JobResult.from_report(job, report, wall_time=timer.elapsed, worker=worker)


def make_pool(executor: str, max_workers: Optional[int], num_tasks: int) -> Executor:
    """A ``"thread"`` or ``"process"`` pool for ``num_tasks`` concurrent tasks.

    Sized ``max_workers`` (default ``os.cpu_count()``), capped by the number
    of tasks so a small batch never spawns idle workers.  Callers check the
    kind with :func:`check_executor` when they are built and run ``"serial"``
    without a pool.
    """
    workers = max_workers or os.cpu_count() or 1
    workers = max(1, min(workers, num_tasks))
    if executor == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(max_workers=workers)


class BatchSolver:
    """Solve many floorplanning jobs concurrently, with caching and dedup.

    Parameters
    ----------
    cache:
        Solve cache shared across batches; ``None`` creates a private
        in-memory cache (so dedup-across-batches still works within the
        solver's lifetime).
    max_workers:
        Pool size; defaults to ``os.cpu_count()`` capped by the number of
        jobs actually being solved.
    executor:
        ``"process"`` (default — true parallelism for the MILP solves),
        ``"thread"``, or ``"serial"`` (in-process, deterministic completion
        order; useful for debugging and tiny batches).
    """

    def __init__(
        self,
        cache: Optional[SolveCache] = None,
        max_workers: Optional[int] = None,
        executor: str = "process",
    ) -> None:
        check_executor(executor)
        self.cache = cache if cache is not None else SolveCache()
        self.max_workers = max_workers
        self.executor = executor

    # ------------------------------------------------------------------
    def iter_results(
        self, jobs: Sequence[SolveJob]
    ) -> Iterator[Tuple[int, SolveJob, JobResult]]:
        """Yield ``(index, job, result)`` as results become available.

        Cache hits are yielded first (flagged ``result.cached = True``); the
        remaining unique jobs are then solved concurrently and every index
        sharing a fingerprint receives its own copy of the shared result.
        """
        jobs = list(jobs)
        indices_by_fp: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            indices_by_fp.setdefault(job.fingerprint, []).append(index)

        pending: List[str] = []
        for fingerprint, indices in indices_by_fp.items():
            hit = self.cache.get(fingerprint)
            if hit is not None:
                for index in indices:
                    yield index, jobs[index], dataclasses.replace(hit, cached=True)
            else:
                pending.append(fingerprint)

        if not pending:
            return

        if self.executor == "serial":
            for fingerprint in pending:
                indices = indices_by_fp[fingerprint]
                result = execute_job(jobs[indices[0]])
                yield from self._store_and_fan_out(jobs, indices, result)
            return

        with make_pool(self.executor, self.max_workers, len(pending)) as pool:
            future_to_fp = {
                pool.submit(execute_job, jobs[indices_by_fp[fp][0]]): fp
                for fp in pending
            }
            for future in as_completed(future_to_fp):
                fingerprint = future_to_fp[future]
                indices = indices_by_fp[fingerprint]
                result = future.result()
                yield from self._store_and_fan_out(jobs, indices, result)

    def solve_all(self, jobs: Sequence[SolveJob]) -> SweepReport:
        """Solve a batch and return results in submission order."""
        jobs = list(jobs)
        slots: List[Optional[JobResult]] = [None] * len(jobs)
        hits = 0
        timer = Timer()
        with timer:
            for index, _job, result in self.iter_results(jobs):
                slots[index] = result
                if result.cached:
                    hits += 1
        results = [result for result in slots if result is not None]
        return SweepReport(
            results=results,
            wall_time=timer.elapsed,
            cache_hits=hits,
            cache_misses=len(results) - hits,
        )

    # ------------------------------------------------------------------
    def _store_and_fan_out(
        self, jobs: List[SolveJob], indices: Iterable[int], result: JobResult
    ) -> Iterator[Tuple[int, SolveJob, JobResult]]:
        if result.status != "error":  # failures are retried on the next batch
            self.cache.put(result)
        for position, index in enumerate(indices):
            # duplicates beyond the first were deduplicated, not re-solved
            copy = dataclasses.replace(result, cached=position > 0)
            yield index, jobs[index], copy
