#!/usr/bin/env python
"""Solving service walkthrough: a cached sweep, then a strategy portfolio.

Expands a devices x workloads x relocation-specs grid into content-hashed
solve jobs and solves each with ``execute_job`` behind an on-disk solve
cache, re-runs the sweep to show the 100% warm-cache replay, and finally runs
the O / HO / annealing strategies in turn on the hardest instance of the
grid, keeping the best feasible floorplan.

Run with::

    python examples/batch_service.py
"""

import dataclasses
import tempfile
import time

from repro import SolverOptions, run_portfolio, sweep_jobs, synthetic_device
from repro.analysis import SWEEP_HEADERS, format_table, sweep_table_rows
from repro.service import SolveCache, constraint_for, execute_job
from repro.workloads.synthetic import config_grid


def solve_all(jobs, cache):
    """Each job is a cache hit (a ``cached=True`` copy) or one solve; a
    non-error result is stored, so failures are retried, not replayed."""
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


def summary(results, wall):
    feasible = sum(result.feasible for result in results)
    hits = sum(result.cached for result in results)
    return (
        f"{len(results)} jobs: {feasible} feasible, {hits}/{len(results)} "
        f"cache hits, wall {wall:.2f}s"
    )


def main() -> None:
    # 1. the scenario grid: one device, 2 sizes x 2 seeds, with/without relocation
    device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name="svc-dev")
    configs = config_grid(num_regions=(3, 4), utilizations=(0.45,), seeds=(0, 1))
    jobs = sweep_jobs(
        [device],
        configs,
        relocations=(None, constraint_for(regions=1, copies=1)),
        options=SolverOptions(time_limit=30, mip_gap=0.05),
    )
    print(f"expanded {len(configs)} workload configs into {len(jobs)} jobs\n")

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = SolveCache(cache_dir)

        # 2. cold sweep: every job is solved and cached
        started = time.perf_counter()
        results = solve_all(jobs, cache)
        wall = time.perf_counter() - started
        print(format_table(SWEEP_HEADERS, sweep_table_rows(results), title="cold sweep"))
        print(summary(results, wall), "\n")

        # 3. warm sweep: identical jobs -> 100% cache hits, no solver calls
        started = time.perf_counter()
        replay = solve_all(jobs, cache)
        print("replay:", summary(replay, time.perf_counter() - started), "\n")

    # 4. strategy portfolio on one instance: the best feasible result wins
    hardest = max(jobs, key=lambda job: len(job.problem.regions))
    result = run_portfolio(
        hardest.problem,
        relocation=hardest.relocation,
        options=SolverOptions(time_limit=30, mip_gap=0.05),
        deadline=90,
    )
    print("portfolio:", result.summary())


if __name__ == "__main__":
    main()
