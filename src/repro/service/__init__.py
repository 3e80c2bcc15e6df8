"""Batch-solving service: jobs, caching, parallel execution, portfolio, sweeps.

The library core (:mod:`repro.floorplan`) answers one floorplanning question
per blocking call.  This package turns those calls into *jobs* that a
production deployment can throw traffic at:

* :mod:`~repro.service.jobs` — :class:`SolveJob`, a serializable solve spec
  with a deterministic content hash;
* :mod:`~repro.service.cache` — :class:`SolveCache`, a content-addressed
  in-memory + JSON-on-disk result store;
* :mod:`~repro.service.executor` — :class:`BatchSolver`, a process-pool
  fan-out with job deduplication and streamed results;
* :mod:`~repro.service.portfolio` — the strategy portfolio (O / HO variants /
  annealing) run in turn under a shared deadline, best result kept;
* :mod:`~repro.service.sweep` — scenario grids (devices x workloads x
  relocation specs) expanded into job lists;
* :mod:`~repro.service.results` — :class:`JobResult` records and the
  aggregate :class:`SweepReport`.

Quickstart::

    from repro.service import BatchSolver, SolveCache, SolveJob

    cache = SolveCache("results/cache")
    solver = BatchSolver(cache=cache)
    report = solver.solve_all([SolveJob(problem) for problem in problems])
    print(report.summary())
    print(report.format())
"""

from repro.service.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    SolveCache,
    cache_migration,
    migrate_entry,
)
from repro.service.executor import BatchSolver, execute_job
from repro.service.jobs import SolveJob
from repro.service.portfolio import (
    DEFAULT_STRATEGIES,
    PortfolioResult,
    Strategy,
    run_portfolio,
    run_strategy,
)
from repro.service.results import JobResult, SweepReport
from repro.service.sweep import constraint_for, run_sweep, sweep_jobs

__all__ = [
    "SolveJob",
    "SolveCache",
    "CacheStats",
    "CACHE_SCHEMA_VERSION",
    "cache_migration",
    "migrate_entry",
    "BatchSolver",
    "execute_job",
    "JobResult",
    "SweepReport",
    "Strategy",
    "DEFAULT_STRATEGIES",
    "PortfolioResult",
    "run_portfolio",
    "run_strategy",
    "sweep_jobs",
    "run_sweep",
    "constraint_for",
]
