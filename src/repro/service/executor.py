"""The one solve entry point: a :class:`~repro.service.jobs.SolveJob` in, a
:class:`~repro.service.results.JobResult` out.

:func:`execute_job` wraps the pure :func:`repro.floorplan.solver.run_job` and
converts its report into a flat result.  Exceptions are captured into
error results, so a failing job never takes its caller (a gateway solver
thread, a benchmark loop) down.  Callers that cache apply one rule: a hit is
served as a ``cached=True`` copy, and only non-error results are stored, so a
failure is retried rather than replayed.
"""

from __future__ import annotations

import os

from repro.floorplan.solver import run_job
from repro.service.jobs import SolveJob
from repro.service.results import JobResult
from repro.utils.timing import Timer


def execute_job(job: SolveJob) -> JobResult:
    """Solve one job and flatten the outcome; a raised error becomes an
    ``error`` result naming the exception."""
    worker = f"pid-{os.getpid()}"
    timer = Timer()
    try:
        with timer:
            report = run_job(job)
    except Exception as exc:  # noqa: BLE001 — a failing job is an error result
        return JobResult.failure(
            job, f"{type(exc).__name__}: {exc}", wall_time=timer.elapsed, worker=worker
        )
    return JobResult.from_report(job, report, wall_time=timer.elapsed, worker=worker)
