"""Solving service: jobs, caching, the one solve entry point, sweeps.

The library core (:mod:`repro.floorplan`) answers one floorplanning question
per blocking call.  This package turns those calls into *jobs* that a
production deployment can throw traffic at:

* :mod:`~repro.service.jobs` — :class:`SolveJob`, a serializable solve spec
  with a deterministic content hash;
* :mod:`~repro.service.cache` — :class:`SolveCache`, a content-addressed
  in-memory + JSON-on-disk result store;
* :mod:`~repro.service.executor` — :func:`execute_job`, one job solved into
  one flat result, errors captured (the gateway's solver threads call it);
* :mod:`~repro.service.sweep` — scenario grids (devices x workloads x
  relocation specs) expanded into job lists;
* :mod:`~repro.service.results` — :class:`JobResult`, the record a solve
  returns and the cache stores.

Quickstart::

    import dataclasses

    from repro.service import SolveCache, SolveJob, execute_job

    cache = SolveCache("results/cache")
    for job in [SolveJob(problem) for problem in problems]:
        result = cache.get(job.fingerprint)
        if result is not None:
            result = dataclasses.replace(result, cached=True)
        else:
            result = execute_job(job)
            if result.status != "error":  # failures are retried, not cached
                cache.put(result)
        print(result.job_name, result.status, result.wasted_frames)
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.service.jobs": ["SolveJob"],
    "repro.service.cache": [
        "SolveCache",
        "CacheStats",
        "CACHE_SCHEMA_VERSION",
        "migrate_entry",
    ],
    "repro.service.executor": ["execute_job"],
    "repro.service.results": ["JobResult"],
    "repro.service.sweep": ["sweep_jobs", "constraint_for"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
