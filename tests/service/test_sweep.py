"""The solve entry point, a cached sweep solve and sweep expansion.

The tests share one module-scoped job grid (8 jobs on a small device) and one
cold solve of it through the solver thread pool, so the whole file adds a few
seconds, not a fresh solve per test.
"""

import asyncio
import dataclasses
import math
import os

import pytest

from repro.analysis import SWEEP_HEADERS, format_table, sweep_table_rows
from repro.device.catalog import synthetic_device
from repro.milp import SolverOptions
from repro.relocation import RelocationSpec
from repro.server.workers import WorkerPool
from repro.service import (
    JobResult,
    SolveCache,
    SolveJob,
    execute_job,
    sweep_jobs,
)
from repro.service.sweep import constraint_for
from repro.workloads.synthetic import config_grid

FAST = SolverOptions(time_limit=30, mip_gap=0.05)


@pytest.fixture(scope="module")
def grid_jobs():
    """8 jobs: (2 sizes x 2 seeds) x (no relocation | one hard area)."""
    device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name="svc-test-dev")
    configs = config_grid(num_regions=(3, 4), utilizations=(0.45,), seeds=(0, 1))
    jobs = sweep_jobs(
        [device],
        configs,
        relocations=(None, constraint_for(regions=1, copies=1)),
        modes=("HO",),
        options=FAST,
    )
    assert len(jobs) == 8
    return jobs


def failing_job(template):
    return SolveJob(problem=template.problem, options=SolverOptions(backend="no-such-backend"))


def solve_through_pool(jobs, cache, threads=2):
    """Every job through one ``WorkerPool``, all submitted at once."""
    pool = WorkerPool(cache=cache, threads=threads)

    async def solve_all():
        return await asyncio.gather(*(pool.solve(job) for job in jobs))

    try:
        return asyncio.run(solve_all())
    finally:
        pool.shutdown()


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return SolveCache(tmp_path_factory.mktemp("solve-cache"))


@pytest.fixture(scope="module")
def cold_results(grid_jobs, shared_cache):
    """The grid solved once on two solver threads, populating the shared cache."""
    return solve_through_pool(grid_jobs, shared_cache)


class TestExecuteJob:
    def test_failure_is_an_error_result_not_a_raise(self, grid_jobs):
        job = SolveJob(
            problem=grid_jobs[0].problem,
            options=SolverOptions(backend="no-such-backend"),
        )
        result = execute_job(job)
        assert result.status == "error" and not result.feasible
        assert math.isnan(result.objective)
        assert "no-such-backend" in result.error
        assert result.worker
        assert result.fingerprint == job.fingerprint

    @pytest.mark.parametrize(
        "change",
        [
            {"relocation": RelocationSpec.as_constraint({"no-such-region": 1})},
            {"heuristic": "no-such-heuristic"},
        ],
        ids=["unknown-region", "unknown-heuristic"],
    )
    def test_every_failure_cause_is_an_error_result(self, grid_jobs, change):
        job = dataclasses.replace(grid_jobs[0], **change)
        result = execute_job(job)
        assert result.status == "error" and not result.feasible
        assert "no-such-" in result.error
        assert result.fingerprint == job.fingerprint and not result.cached

    def test_success_is_a_flat_uncached_result(self, grid_jobs):
        job = grid_jobs[0]
        result = execute_job(job)
        assert result.status == "optimal" and result.feasible
        assert result.error is None and not result.cached
        assert result.fingerprint == job.fingerprint and result.job_name == job.name
        assert result.worker == f"pid-{os.getpid()}"
        assert result.wasted_frames is not None and result.wirelength is not None
        assert result.floorplan is not None


class TestCachedSweep:
    """The grid through the gateway's solve path: a hit is a ``cached=True``
    copy, and only non-error results are stored."""

    def test_grid_is_verified_feasible_in_submission_order(self, cold_results, grid_jobs):
        assert len(cold_results) == len(grid_jobs)
        assert all(result.feasible for result in cold_results)
        assert not any(result.status == "error" for result in cold_results)
        assert not any(result.cached for result in cold_results)
        for job, result in zip(grid_jobs, cold_results):
            assert result.fingerprint == job.fingerprint

    def test_cold_solve_stores_every_result_as_returned(self, cold_results, grid_jobs, shared_cache):
        for job, result in zip(grid_jobs, cold_results):
            assert shared_cache.get(job.fingerprint).as_dict() == result.as_dict()

    def test_warm_rerun_hits_cache_for_every_job(self, cold_results, grid_jobs, shared_cache):
        stores = shared_cache.stats.stores
        warm = solve_through_pool(grid_jobs, shared_cache)
        assert all(result.cached for result in warm)
        assert [result.fingerprint for result in warm] == [job.fingerprint for job in grid_jobs]
        assert shared_cache.stats.stores == stores  # a hit is never stored again

    def test_a_hit_copy_leaves_the_stored_entry_uncached(self, cold_results, grid_jobs, shared_cache):
        solve_through_pool(grid_jobs[:1], shared_cache)
        assert not shared_cache.get(grid_jobs[0].fingerprint).cached

    def test_cached_results_are_deterministic(self, cold_results, grid_jobs, shared_cache):
        # a brand-new cache object reading the same directory reproduces the
        # cold results (fingerprints and solution metrics)
        disk = SolveCache(shared_cache.directory)
        for job, cold in zip(grid_jobs, cold_results):
            stored = disk.get(job.fingerprint)
            assert stored is not None
            assert stored.fingerprint == cold.fingerprint
            assert stored.wasted_frames == cold.wasted_frames
            assert stored.status == cold.status
        assert disk.stats.hits == len(grid_jobs)

    def test_fresh_solve_reproduces_the_cached_answer(self, cold_results, grid_jobs):
        again = execute_job(grid_jobs[0])
        assert (again.status, again.wasted_frames, again.wirelength) == (
            cold_results[0].status,
            cold_results[0].wasted_frames,
            cold_results[0].wirelength,
        )

    def test_repeat_job_is_solved_once_then_served_from_cache(self, grid_jobs):
        cache = SolveCache()  # private, cold
        job = grid_jobs[0]
        results = [solve_through_pool([job], cache, threads=1)[0] for _ in range(3)]
        assert [result.cached for result in results] == [False, True, True]
        assert {result.fingerprint for result in results} == {job.fingerprint}
        assert cache.stats.stores == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failing_job_does_not_poison_its_siblings(
        self, cold_results, grid_jobs, shared_cache, threads
    ):
        # the good job is already cached by the cold solve -> no new MILP run
        good, bad = solve_through_pool(
            [grid_jobs[0], failing_job(grid_jobs[0])], shared_cache, threads=threads
        )
        assert good.feasible and good.cached
        assert bad.status == "error" and not bad.cached
        assert bad.fingerprint not in shared_cache

    def test_changed_options_are_a_new_solve(self, cold_results, grid_jobs, shared_cache):
        template = grid_jobs[0]
        fresh = SolveJob(problem=template.problem, options=FAST.replace(time_limit=29))
        assert fresh.fingerprint != template.fingerprint
        first, repeat = (solve_through_pool([fresh], shared_cache)[0] for _ in range(2))
        assert not first.cached and repeat.cached
        assert first.wasted_frames == cold_results[0].wasted_frames  # same work


class TestSweepTable:
    def test_table_lists_every_job(self, cold_results):
        table = format_table(SWEEP_HEADERS, sweep_table_rows(cold_results), title="grid")
        assert "Wasted frames" in table and "svc-test-dev" in table
        assert sum("svc-test-dev" in line for line in table.splitlines()) == len(cold_results)

    def test_rows_mark_cache_hits(self, cold_results):
        rows = sweep_table_rows(cold_results + [dataclasses.replace(cold_results[0], cached=True)])
        assert [row[-1] for row in rows] == ["miss"] * len(cold_results) + ["hit"]
        assert all(row[3] == "yes" for row in rows)

    def test_error_row_shows_dashes(self, grid_jobs):
        result = JobResult.failure(failing_job(grid_jobs[0]), "ValueError: boom")
        (row,) = sweep_table_rows([result])
        assert row[2:6] == ["error", "no", "-", "-"]


class TestSweepJobs:
    def test_grid_shape_and_order(self, grid_jobs):
        # devices x configs x relocations x modes, relocation innermost-but-one
        assert grid_jobs[0].relocation is None
        assert grid_jobs[1].relocation is not None
        names = [job.problem.name for job in grid_jobs]
        assert names[0] == names[1]  # same problem, different relocation entry
        assert len(set(names)) == 4  # 4 distinct (device, config) cells

    def test_constraint_for_targets_first_regions(self, grid_jobs):
        spec = grid_jobs[1].relocation
        assert spec.regions == [grid_jobs[1].problem.region_names[0]]
        assert spec.total_copies == 1


class TestTopLevelExports:
    def test_service_surface_reexported(self):
        import repro

        for name in (
            "SolveJob",
            "SolveCache",
            "sweep_jobs",
            "execute_job",
        ):
            assert name in repro.__all__ and hasattr(repro, name)

    def test_runtime_and_bitstream_surface_reexported(self):
        import repro

        for name in (
            "ReconfigurationManager",
            "ReconfigurationError",
            "RuntimeTrace",
            "PartialBitstream",
            "generate_bitstream",
            "relocate_bitstream",
            "ConfigurationMemory",
        ):
            assert name in repro.__all__ and hasattr(repro, name)
