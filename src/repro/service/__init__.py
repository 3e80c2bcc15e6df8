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

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.service.jobs": ["SolveJob"],
    "repro.service.cache": [
        "SolveCache",
        "CacheStats",
        "CACHE_SCHEMA_VERSION",
        "cache_migration",
        "migrate_entry",
    ],
    "repro.service.executor": ["BatchSolver", "execute_job"],
    "repro.service.results": ["JobResult", "SweepReport"],
    "repro.service.portfolio": [
        "Strategy",
        "DEFAULT_STRATEGIES",
        "PortfolioResult",
        "run_portfolio",
        "run_strategy",
    ],
    "repro.service.sweep": ["sweep_jobs", "run_sweep", "constraint_for"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
