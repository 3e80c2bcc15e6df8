"""Solving-service throughput: the cold-vs-warm cache speedup of re-running an
identical sweep through ``execute_job`` behind a ``SolveCache``.

Run with ``PYTHONPATH=src pytest benchmarks/bench_service_throughput.py -q``.
Replaying a sweep against a populated cache skips every solve, so the warm
speedup does not depend on the core count and must come out far above the
2x bar on any hardware.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.scenarios import throughput_sweep_jobs
from repro.service import SolveCache, execute_job
from repro.utils.timing import Timer


@pytest.fixture(scope="module")
def grid_jobs():
    """An 8-job grid: 2 workload sizes x 2 seeds x (no relocation | 1 area)."""
    jobs = throughput_sweep_jobs()
    assert len(jobs) >= 8
    return jobs


def solve_all(jobs, cache):
    """Serve each job from ``cache`` or solve and store it (errors are not
    stored); returns the results in job order."""
    results = []
    for job in jobs:
        result = cache.get(job.fingerprint)
        if result is not None:
            result = dataclasses.replace(result, cached=True)
        else:
            result = execute_job(job)
            if result.status != "error":
                cache.put(result)
        results.append(result)
    return results


def hits(results):
    return sum(result.cached for result in results)


def test_warm_cache_resweep_speedup(grid_jobs, tmp_path):
    """Re-running an identical sweep against a warm cache must be >= 2x faster."""
    cache = SolveCache(tmp_path / "cache")

    with Timer() as cold:
        cold_results = solve_all(grid_jobs, cache)
    with Timer() as warm:
        warm_results = solve_all(grid_jobs, cache)

    assert all(result.feasible for result in cold_results)
    assert hits(cold_results) == 0
    assert hits(warm_results) == len(grid_jobs)  # 100% hit rate

    speedup = cold.elapsed / max(warm.elapsed, 1e-9)
    print(
        f"\ncold {cold.elapsed:.2f}s, warm {warm.elapsed:.4f}s "
        f"({speedup:.0f}x over {len(grid_jobs)} jobs)"
    )
    assert speedup >= 2.0

    # a fresh process (fresh cache object) still hits 100% via the disk layer
    disk_results = solve_all(grid_jobs, SolveCache(tmp_path / "cache"))
    assert hits(disk_results) == len(grid_jobs)
