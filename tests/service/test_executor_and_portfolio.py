"""Batch execution, sweep aggregation and the strategy portfolio.

The MILP-solving tests share one module-scoped job grid (8 jobs on a small
device) and one cold batch solve, so the whole file adds a handful of
seconds, not a fresh solve per test.
"""

import time

import pytest

from repro.device.catalog import synthetic_device
from repro.milp import SolverOptions
from repro.service import (
    BatchSolver,
    JobResult,
    SolveCache,
    Strategy,
    portfolio,
    run_portfolio,
    run_sweep,
    sweep_jobs,
)
from repro.service.portfolio import DEFAULT_STRATEGIES, _pick_winner
from repro.service.sweep import constraint_for
from repro.workloads.synthetic import config_grid

FAST = SolverOptions(time_limit=30, mip_gap=0.05)


def fake_result(name, wasted, wires, feasible=True):
    return JobResult(
        fingerprint="",
        job_name=name,
        status="optimal" if feasible else "infeasible",
        feasible=feasible,
        objective=0.0,
        solve_time=0.0,
        wall_time=0.0,
        backend="",
        mode="O",
        metrics={"wasted_frames": wasted, "wirelength": wires},
    )


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


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return SolveCache(tmp_path_factory.mktemp("solve-cache"))


@pytest.fixture(scope="module")
def cold_report(grid_jobs, shared_cache):
    """The grid solved once, in parallel, populating the shared cache."""
    return BatchSolver(cache=shared_cache, executor="process").solve_all(grid_jobs)


class TestBatchSolver:
    def test_parallel_grid_is_verified_feasible(self, cold_report, grid_jobs):
        assert len(cold_report.results) == len(grid_jobs)
        assert cold_report.num_feasible == len(grid_jobs)
        assert cold_report.num_errors == 0
        assert cold_report.cache_hits == 0
        for job, result in zip(grid_jobs, cold_report.results):
            assert result.fingerprint == job.fingerprint  # submission order kept

    def test_warm_rerun_hits_cache_for_every_job(self, cold_report, grid_jobs, shared_cache):
        warm = BatchSolver(cache=shared_cache, executor="process").solve_all(grid_jobs)
        assert warm.cache_hits == len(grid_jobs)
        assert warm.hit_rate == 1.0
        assert all(result.cached for result in warm.results)

    def test_cached_results_are_deterministic(self, cold_report, grid_jobs, shared_cache):
        # a brand-new cache object reading the same directory reproduces the
        # cold results exactly (fingerprints and solution metrics)
        disk = BatchSolver(
            cache=SolveCache(shared_cache.directory), executor="serial"
        ).solve_all(grid_jobs)
        assert disk.cache_hits == len(grid_jobs)
        for cold_result, disk_result in zip(cold_report.results, disk.results):
            assert disk_result.fingerprint == cold_result.fingerprint
            assert disk_result.wasted_frames == cold_result.wasted_frames
            assert disk_result.status == cold_result.status

    def test_duplicate_jobs_are_deduplicated(self, grid_jobs):
        job = grid_jobs[0]
        solver = BatchSolver(executor="serial")  # private in-memory cache
        report = solver.solve_all([job, job, job])
        assert len(report.results) == 3
        assert {result.fingerprint for result in report.results} == {job.fingerprint}
        # one solve, two fan-out copies
        assert sum(1 for result in report.results if not result.cached) == 1
        assert solver.cache.stats.stores == 1

    def test_failures_are_captured_not_raised(self, grid_jobs):
        job = type(grid_jobs[0])(
            problem=grid_jobs[0].problem,
            options=SolverOptions(backend="no-such-backend"),
        )
        report = BatchSolver(executor="serial").solve_all([job])
        assert report.num_errors == 1
        assert report.results[0].status == "error"
        assert "no-such-backend" in report.results[0].error

    def test_streaming_interface_labels_indices(self, grid_jobs, shared_cache):
        solver = BatchSolver(cache=shared_cache, executor="serial")
        seen = sorted(
            index for index, _job, _result in solver.iter_results(grid_jobs)
        )
        assert seen == list(range(len(grid_jobs)))

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            BatchSolver(executor="gpu")

    def test_sweep_report_formatting(self, cold_report):
        table = cold_report.format(title="grid")
        assert "Wasted frames" in table and "svc-test-dev" in table
        summary = cold_report.summary()
        assert "8 jobs" in summary and "8 feasible" in summary

    def test_run_sweep_convenience(self, grid_jobs, shared_cache):
        report = run_sweep(grid_jobs, cache=shared_cache, executor="serial")
        assert report.hit_rate == 1.0


class TestBatchSolverErrorPaths:
    """Worker exception capture and streaming semantics across executor kinds.

    Error jobs use an unknown MILP backend, which raises inside the worker's
    ``execute_job`` regardless of executor kind — so the same failure shape is
    exercised in-process (serial), on pool threads and (above, via the module
    fixtures) in pool processes.
    """

    @staticmethod
    def failing_job(template):
        return type(template)(
            problem=template.problem,
            options=SolverOptions(backend="no-such-backend"),
        )

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_worker_exception_captured_per_executor(self, grid_jobs, kind):
        solver = BatchSolver(executor=kind, max_workers=2)
        report = solver.solve_all([self.failing_job(grid_jobs[0])])
        assert report.num_errors == 1
        result = report.results[0]
        assert result.status == "error" and not result.feasible
        assert "no-such-backend" in result.error
        assert result.objective != result.objective  # NaN sentinel

    def test_mistyped_executor_is_rejected_not_run_as_a_process_pool(self):
        with pytest.raises(ValueError, match="executor must be one of"):
            BatchSolver(executor="threads")

    def test_error_results_never_enter_the_cache(self, grid_jobs):
        solver = BatchSolver(executor="thread", max_workers=2)
        bad = self.failing_job(grid_jobs[0])
        solver.solve_all([bad])
        assert bad.fingerprint not in solver.cache
        assert solver.cache.stats.stores == 0
        # ... so the next batch retries it (and fails again) instead of
        # replaying a cached failure
        retry = solver.solve_all([bad])
        assert retry.num_errors == 1
        assert not retry.results[0].cached

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_mixed_batch_keeps_good_results(self, cold_report, grid_jobs, shared_cache, kind):
        # a failing job in the batch must not poison its siblings (the good
        # job is already cached by the module's cold solve -> no new MILP run)
        solver = BatchSolver(cache=shared_cache, executor=kind, max_workers=2)
        report = solver.solve_all([grid_jobs[0], self.failing_job(grid_jobs[0])])
        assert [result.status == "error" for result in report.results] == [False, True]
        assert report.num_errors == 1
        assert report.results[0].feasible

    def test_duplicate_fingerprint_streaming_order(self, cold_report, grid_jobs, shared_cache):
        # warm cache: hits stream first; for a cold duplicate group the first
        # yielded copy is the solve (cached=False) and the rest are fan-outs
        template = grid_jobs[0]
        fresh = type(template)(
            problem=template.problem,
            options=FAST.replace(time_limit=29),  # distinct fingerprint, same work
        )
        jobs = [grid_jobs[1], fresh, fresh, fresh]
        solver = BatchSolver(cache=shared_cache, executor="serial")
        streamed = list(solver.iter_results(jobs))
        # the warm job (index 0) streams before the cold duplicate group
        assert streamed[0][0] == 0 and streamed[0][2].cached
        cold = [(index, result) for index, _job, result in streamed[1:]]
        assert sorted(index for index, _ in cold) == [1, 2, 3]
        flags = [result.cached for index, result in sorted(cold)]
        assert flags == [False, True, True]
        # every copy shares the one solved record's content
        assert len({result.fingerprint for _, result in cold}) == 1

    def test_thread_executor_warm_replay(self, cold_report, grid_jobs, shared_cache):
        warm = BatchSolver(cache=shared_cache, executor="thread").solve_all(grid_jobs)
        assert warm.cache_hits == len(grid_jobs)
        assert warm.num_errors == 0


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


class TestPortfolio:
    @pytest.fixture(scope="class")
    def race(self, grid_jobs):
        job = grid_jobs[0]
        return run_portfolio(
            job.problem,
            options=FAST,
            strategies=(
                Strategy("HO-tessellation", kind="milp", mode="HO"),
                Strategy("annealing", kind="annealing"),
            ),
        )

    def test_winner_is_best_feasible_by_objective_key(self, race):
        feasible = {
            name: outcome
            for name, outcome in race.outcomes.items()
            if outcome.feasible
        }
        assert feasible, "at least one strategy must solve the instance"
        expected = min(feasible, key=lambda name: feasible[name].objective_key())
        assert race.winner == expected
        assert race.winner_result is feasible[race.winner]

    def test_every_strategy_reported(self, race):
        assert list(race.outcomes) == ["HO-tessellation", "annealing"]
        assert "winner=" in race.summary()

    def test_expired_deadline_marks_everything(self, grid_jobs):
        result = run_portfolio(
            grid_jobs[0].problem,
            options=FAST,
            deadline=0.0,
        )
        assert result.winner is None
        assert all(o.status == "deadline" for o in result.outcomes.values())

    def test_pick_winner_prefers_fewer_wasted_frames(self):
        names = ["a", "b", "c", "d"]
        outcomes = {
            "a": fake_result("a", wasted=10, wires=1.0),
            "b": fake_result("b", wasted=4, wires=9.0),
            "c": fake_result("c", wasted=4, wires=2.0),
            "d": fake_result("d", wasted=0, wires=0.0, feasible=False),
        }
        # fewest wasted frames wins; wirelength breaks the tie; infeasible
        # results never win no matter their metrics
        assert _pick_winner(names, outcomes) == "c"

    def test_deadline_after_first_strategy_keeps_its_result(self, grid_jobs, monkeypatch):
        calls = []

        def stub(strategy, problem, relocation=None, options=None, weights=None):
            calls.append(strategy.name)
            time.sleep(0.05)  # the shared deadline passes while this one runs
            return fake_result(strategy.name, wasted=3, wires=1.0)

        monkeypatch.setattr(portfolio, "run_strategy", stub)
        result = run_portfolio(
            grid_jobs[0].problem,
            strategies=(
                Strategy("first"),
                Strategy("second", mode="HO"),
                Strategy("third", kind="annealing"),
            ),
            deadline=0.01,
        )
        assert calls == ["first"]
        assert list(result.outcomes) == ["first", "second", "third"]
        assert result.outcomes["first"].status == "optimal"
        assert result.outcomes["second"].status == "deadline"
        assert result.outcomes["third"].status == "deadline"
        assert result.winner == "first"

    def test_default_strategies_run_in_order_and_best_wins(self, grid_jobs, monkeypatch):
        scores = {
            "O": (6, 1.0),
            "HO-tessellation": (2, 3.0),
            "HO-first-fit": (2, 1.5),
            "annealing": (9, 0.5),
        }
        calls = []

        def stub(strategy, problem, relocation=None, options=None, weights=None):
            calls.append(strategy.name)
            wasted, wires = scores[strategy.name]
            return fake_result(strategy.name, wasted=wasted, wires=wires)

        monkeypatch.setattr(portfolio, "run_strategy", stub)
        result = run_portfolio(grid_jobs[0].problem)
        assert calls == [strategy.name for strategy in DEFAULT_STRATEGIES]
        assert list(result.outcomes) == calls
        assert result.winner == "HO-first-fit"

    def test_crashing_annealing_strategy_is_captured(self, grid_jobs, monkeypatch):
        import repro.baselines.annealing as annealing_mod

        def boom(problem, options=None):
            raise RuntimeError("annealer exploded")

        monkeypatch.setattr(annealing_mod, "annealing_floorplan", boom)
        result = run_portfolio(
            grid_jobs[0].problem,
            options=FAST,
            strategies=(Strategy("annealing", kind="annealing"),),
        )
        outcome = result.outcomes["annealing"]
        assert outcome.status == "error"
        assert "annealer exploded" in outcome.error
        assert result.winner is None

    def test_duplicate_strategy_names_rejected(self, grid_jobs):
        with pytest.raises(ValueError):
            run_portfolio(
                grid_jobs[0].problem,
                strategies=(Strategy("x"), Strategy("x")),
            )


class TestTopLevelExports:
    def test_service_surface_reexported(self):
        import repro

        for name in (
            "SolveJob",
            "SolveCache",
            "BatchSolver",
            "SweepReport",
            "sweep_jobs",
            "run_sweep",
            "run_portfolio",
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
