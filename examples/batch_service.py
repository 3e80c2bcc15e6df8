#!/usr/bin/env python
"""Batch service walkthrough: a cached sweep, then a strategy portfolio.

Expands a devices x workloads x relocation-specs grid into content-hashed
solve jobs, fans them across a process pool with an on-disk solve cache,
re-runs the sweep to show the 100% warm-cache replay, and finally runs the
O / HO / annealing strategies in turn on the hardest instance of the grid,
keeping the best feasible floorplan.

Run with::

    python examples/batch_service.py
"""

import tempfile

from repro import SolverOptions, run_portfolio, run_sweep, sweep_jobs, synthetic_device
from repro.service import SolveCache, constraint_for
from repro.workloads.synthetic import config_grid


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

        # 2. cold sweep: every job is solved (in parallel) and cached
        report = run_sweep(jobs, cache=cache)
        print(report.format(title="cold sweep"))
        print(report.summary(), "\n")

        # 3. warm sweep: identical jobs -> 100% cache hits, no solver calls
        replay = run_sweep(jobs, cache=cache)
        print("replay:", replay.summary(), "\n")

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
