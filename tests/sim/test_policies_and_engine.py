"""Tests of the decision policies and the discrete-event engine."""

import pytest

from repro.device.resources import ResourceVector
from repro.floorplan.geometry import Rect
from repro.floorplan.metrics import ObjectiveWeights, evaluate_floorplan
from repro.floorplan.placement import Floorplan
from repro.floorplan.problem import FloorplanProblem, Region
from repro.floorplan.verify import verify_floorplan
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.runtime import EventKind, ReconfigurationManager
from repro.runtime.scheduler import round_robin_schedule
from repro.service import SolveJob, execute_job
from repro.service import executor
from repro.sim import (
    ModeRequest,
    PoissonTraffic,
    Policy,
    PolicyOutcome,
    ReconfigureInPlace,
    RelocateFirst,
    ResolveViaService,
    ScheduledFaults,
    SimConfig,
    SimulationEngine,
    TraceReplayTraffic,
    fault_masked_problem,
)


@pytest.fixture()
def manual_floorplan(two_type_device):
    """Two regions, each with its own reserved free-compatible area."""
    regions = [
        Region("A", ResourceVector(CLB=4)),
        Region("B", ResourceVector(CLB=4)),
    ]
    problem = FloorplanProblem(two_type_device, regions, name="sim-manual")
    return Floorplan.from_rects(
        problem,
        {"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 2, 2)},
        free_rects={"A 1": (Rect(2, 0, 2, 2), "A"), "B 1": (Rect(8, 0, 2, 2), "B")},
    )


@pytest.fixture()
def bare_floorplan(two_type_device):
    """One region, no reserved free areas — relocation is impossible."""
    problem = FloorplanProblem(
        two_type_device, [Region("A", ResourceVector(CLB=4))], name="sim-bare"
    )
    return Floorplan.from_rects(problem, {"A": Rect(0, 0, 2, 2)})


class TestPolicies:
    def test_reconfigure_in_place_serves_and_blocks_on_fault(self, manual_floorplan):
        manager = ReconfigurationManager(manual_floorplan)
        policy = ReconfigureInPlace()
        outcome = policy.apply(manager, ModeRequest(0.0, "A", "mode1"))
        assert outcome.ok and outcome.action == "reconfigure" and outcome.frames > 0
        manager.inject_fault(manager.current_location("A"))
        blocked = policy.apply(manager, ModeRequest(1.0, "A", "mode2"))
        assert not blocked.ok and blocked.action == "blocked"
        assert "fault-masked" in blocked.detail

    def test_relocate_first_routes_around_a_fault(self, manual_floorplan):
        manager = ReconfigurationManager(manual_floorplan)
        policy = RelocateFirst()
        policy.apply(manager, ModeRequest(0.0, "A", "mode1"))
        home = manager.current_location("A")
        manager.inject_fault(home)
        outcome = policy.apply(manager, ModeRequest(1.0, "A", "mode2"))
        assert outcome.ok and outcome.action == "relocate+reconfigure"
        assert manager.current_location("A") != home
        assert manager.active_module("A") == "mode2"

    def test_relocate_first_blocks_without_free_area(self, bare_floorplan):
        manager = ReconfigurationManager(bare_floorplan)
        policy = RelocateFirst()
        policy.apply(manager, ModeRequest(0.0, "A", "mode1"))
        manager.inject_fault(manager.current_location("A"))
        outcome = policy.apply(manager, ModeRequest(1.0, "A", "mode2"))
        assert not outcome.ok and outcome.action == "blocked"

    def test_relocate_first_blocks_unloaded_region_with_faulty_home(
        self, manual_floorplan
    ):
        manager = ReconfigurationManager(manual_floorplan)
        manager.inject_fault(manager.current_location("A"))
        outcome = RelocateFirst().apply(manager, ModeRequest(0.0, "A", "mode1"))
        assert not outcome.ok  # nothing loaded, nothing to relocate

    def test_relocate_first_does_not_move_on_unknown_mode(self, manual_floorplan):
        manager = ReconfigurationManager(
            manual_floorplan, allowed_modes={"A": ["mode1"]}
        )
        policy = RelocateFirst()
        policy.apply(manager, ModeRequest(0.0, "A", "mode1"))
        home = manager.current_location("A")
        outcome = policy.apply(manager, ModeRequest(1.0, "A", "mode9"))
        # moving the module cannot make an unknown mode loadable
        assert not outcome.ok and "unknown mode" in outcome.detail
        assert manager.current_location("A") == home
        assert manager.trace.count(EventKind.RELOCATE) == 0

    def test_relocate_first_handles_unknown_region(self, manual_floorplan):
        manager = ReconfigurationManager(manual_floorplan)
        outcome = RelocateFirst().apply(manager, ModeRequest(0.0, "nope", "mode1"))
        assert not outcome.ok and "unknown region" in outcome.detail


class TestEngineQueueing:
    def test_single_port_serializes_distinct_regions(self, manual_floorplan):
        schedule = round_robin_schedule(["A", "B"], modes_per_region=1, rounds=1)
        engine = SimulationEngine(
            ReconfigurationManager(manual_floorplan),
            traffic=TraceReplayTraffic(schedule),
            policy=ReconfigureInPlace(),
            config=SimConfig(horizon=10.0, seconds_per_frame=1e-3, num_ports=1),
        )
        result = engine.run()
        first, second = sorted(result.stats.records, key=lambda r: r.request_id)
        assert first.wait == 0.0
        assert second.wait == pytest.approx(first.service)

    def test_two_ports_run_distinct_regions_in_parallel(self, manual_floorplan):
        schedule = round_robin_schedule(["A", "B"], modes_per_region=1, rounds=1)
        engine = SimulationEngine(
            ReconfigurationManager(manual_floorplan),
            traffic=TraceReplayTraffic(schedule),
            policy=ReconfigureInPlace(),
            config=SimConfig(horizon=10.0, seconds_per_frame=1e-3, num_ports=2),
        )
        result = engine.run()
        assert all(record.wait == 0.0 for record in result.stats.records)

    def test_same_region_serializes_even_with_spare_ports(self, manual_floorplan):
        schedule = round_robin_schedule(["A"], modes_per_region=2, rounds=2)
        engine = SimulationEngine(
            ReconfigurationManager(manual_floorplan),
            traffic=TraceReplayTraffic(schedule),
            policy=ReconfigureInPlace(),
            config=SimConfig(horizon=10.0, seconds_per_frame=1e-3, num_ports=4),
        )
        result = engine.run()
        waits = [record.wait for record in result.stats.records]
        assert waits[0] == 0.0
        assert all(later > 0.0 for later in waits[1:])

    def test_queue_capacity_drops_overflow_arrivals(self, manual_floorplan):
        schedule = round_robin_schedule(["A", "B"], modes_per_region=1, rounds=2)
        engine = SimulationEngine(
            ReconfigurationManager(manual_floorplan),
            traffic=TraceReplayTraffic(schedule),
            policy=ReconfigureInPlace(),
            config=SimConfig(
                horizon=10.0, seconds_per_frame=1e-3, num_ports=1, queue_capacity=1
            ),
        )
        result = engine.run()
        assert result.stats.rejected_arrivals == 2
        assert len(result.stats.records) == 2
        assert result.stats.blocking_probability == pytest.approx(0.5)

    def test_fault_before_first_load_blocks_in_place_policy(self, manual_floorplan):
        engine = SimulationEngine(
            ReconfigurationManager(manual_floorplan),
            traffic=TraceReplayTraffic(
                round_robin_schedule(["A"], modes_per_region=1, rounds=1), offset=1.0
            ),
            policy=ReconfigureInPlace(),
            faults=ScheduledFaults([(0.5, "A")]),
            config=SimConfig(horizon=10.0),
        )
        result = engine.run()
        assert len(result.stats.blocked) == 1
        assert result.stats.actions() == {"blocked": 1}
        assert len(result.stats.fault_times) == 1


class TestEngineEndToEnd:
    def _run(self, floorplan):
        engine = SimulationEngine(
            ReconfigurationManager(floorplan),
            traffic=PoissonTraffic(["A", "B"], rate=3.0, seed=7),
            policy=RelocateFirst(),
            faults=ScheduledFaults([(2.0, "A")]),
            config=SimConfig(horizon=20.0, seconds_per_frame=1e-3),
        )
        return engine.run()

    def test_seeded_run_is_byte_for_byte_reproducible(self, manual_floorplan):
        first = self._run(manual_floorplan)
        second = self._run(manual_floorplan)
        assert first.format_report() == second.format_report()

    def test_fault_forces_relocation_and_tables_are_populated(self, manual_floorplan):
        result = self._run(manual_floorplan)
        assert result.stats.actions().get("relocate+reconfigure", 0) >= 1
        assert result.trace_summary()["relocate"] >= 1
        assert result.trace_summary()["fault"] == 1
        # non-empty latency/utilization percentile tables via repro.analysis
        latency_rows = result.stats.latency_rows()
        assert latency_rows and all(row[1] > 0 for row in latency_rows)
        utilization = result.stats.format_utilization(
            result.config.num_ports, result.makespan
        )
        assert "port(s)" in utilization and "A" in utilization
        # virtual-time trace stamps are monotone within each manager generation
        for trace in result.traces:
            times = [event.time for event in trace]
            assert times == sorted(times)

    def test_bitstream_cache_counters_exposed(self, manual_floorplan):
        result = self._run(manual_floorplan)
        stats = result.manager.cache_stats()
        assert stats["hits"] > 0
        assert stats["misses"] > 0
        assert stats["size"] <= stats["capacity"]


def run_refloorplan_scenario(report, options, **policy_args):
    """Serve a round-robin trace while a fault lands on ``alpha``, a region
    with no reserved free area, forcing one live re-floorplan."""
    manager = ReconfigurationManager(report.floorplan)
    policy = ResolveViaService(options=options, resolve_latency=0.5, **policy_args)
    schedule = round_robin_schedule(
        ["alpha", "beta", "gamma"], modes_per_region=2, rounds=2
    ).with_dwells([1.0] * 6)
    engine = SimulationEngine(
        manager,
        traffic=TraceReplayTraffic(schedule),
        policy=policy,
        faults=ScheduledFaults([(2.5, "alpha")]),
        config=SimConfig(horizon=30.0, seconds_per_frame=1e-3),
    )
    return manager, policy, engine.run()


class TestResolveViaService:
    @pytest.fixture(scope="class")
    def scenario(self, tiny_relocation_solution, fast_options):
        report, _ = tiny_relocation_solution
        return run_refloorplan_scenario(report, fast_options)

    def test_refloorplan_recovers_an_unrelocatable_region(self, scenario):
        manager, policy, result = scenario
        assert policy.resolve_count == 1
        assert result.refloorplans == 1
        assert result.stats.actions().get("resolve+reconfigure", 0) == 1
        assert not result.stats.blocked
        # the re-solved device masks the faulty fabric as forbidden
        assert result.manager.device.forbidden
        # the displaced modules were reloaded and the sim kept serving
        assert result.manager.active_module("alpha") is not None
        assert len(result.traces) == 2
        # the inherited fault is not re-recorded: one FAULT event total
        assert result.trace_summary()["fault"] == 1
        assert len(result.stats.fault_times) == 1
        # the bitstream cache object survived the manager swap
        assert result.manager.bitstream_cache is manager.bitstream_cache

    def test_swapped_in_floorplan_is_the_verified_o_optimum(
        self, scenario, tiny_relocation_solution, fast_options
    ):
        report, spec = tiny_relocation_solution
        _, _, result = scenario
        floorplan = result.manager.floorplan
        assert verify_floorplan(floorplan).is_feasible
        direct = execute_job(
            SolveJob(
                problem=fault_masked_problem(
                    report.floorplan.problem, result.manager.faulty_rects
                ),
                relocation=spec,
                mode="O",
                options=fast_options,
            )
        )
        assert direct.feasible
        served = evaluate_floorplan(floorplan).objective
        assert served == pytest.approx(direct.objective)
        assert served == pytest.approx(0.009821, abs=1e-6)

    def test_report_is_identical_across_runs(
        self, scenario, tiny_relocation_solution, fast_options
    ):
        report, _ = tiny_relocation_solution
        _, _, again = run_refloorplan_scenario(report, fast_options)
        assert again.refloorplans == 1
        assert again.format_report() == scenario[2].format_report()

    def test_a_solve_without_a_floorplan_blocks(self, tiny_relocation_solution):
        report, _ = tiny_relocation_solution
        _, policy, result = run_refloorplan_scenario(
            report, SolverOptions(backend="no-such-backend")
        )
        assert policy.resolve_count == 1 and result.refloorplans == 0
        details = [record.detail for record in result.stats.blocked]
        assert any("re-floorplan found no feasible placement" in d for d in details)

    @pytest.fixture()
    def solved_jobs(self, monkeypatch):
        """Every job the policy hands to ``execute_job``, solved for real."""
        jobs = []

        def recording(job):
            jobs.append(job)
            return execute_job(job)

        monkeypatch.setattr(executor, "execute_job", recording)
        return jobs

    def test_the_resolve_is_one_o_job_with_the_policy_settings(
        self, solved_jobs, tiny_relocation_solution, fast_options
    ):
        report, _ = tiny_relocation_solution
        weights = ObjectiveWeights(wirelength=0.5, wasted_frames=1.0)
        _, policy, result = run_refloorplan_scenario(report, fast_options, weights=weights)
        assert result.refloorplans == 1
        (job,) = solved_jobs
        assert job.mode == "O"
        assert job.options is fast_options and job.weights is weights
        # the faulty fabric is forbidden in the re-solved problem
        assert job.problem.device.forbidden
        assert not report.floorplan.problem.device.forbidden
        # with no spec given, one hard request per reserved free area
        assert {r.region: (r.copies, r.hard) for r in job.relocation.requests} == {
            "beta": (1, True), "gamma": (1, True),
        }

    def test_a_given_relocation_spec_is_solved_as_given(
        self, solved_jobs, tiny_relocation_solution, fast_options
    ):
        report, _ = tiny_relocation_solution
        spec = RelocationSpec.as_constraint({"beta": 1})
        _, _, result = run_refloorplan_scenario(report, fast_options, relocation=spec)
        assert result.refloorplans == 1
        (job,) = solved_jobs
        assert job.relocation is spec
        free_areas = result.manager.floorplan.free_areas.values()
        assert [area.compatible_with for area in free_areas] == ["beta"]

    def test_passes_through_when_relocation_suffices(self, manual_floorplan):
        manager = ReconfigurationManager(manual_floorplan)
        policy = ResolveViaService(resolve_latency=0.5)
        policy._fallback.apply(manager, ModeRequest(0.0, "A", "mode1"))
        manager.inject_fault(manager.current_location("A"))
        outcome = policy.apply(manager, ModeRequest(1.0, "A", "mode2"))
        assert outcome.ok and outcome.action == "relocate+reconfigure"
        assert policy.resolve_count == 0

    def test_no_solver_escalation_for_non_placement_failures(self, manual_floorplan):
        manager = ReconfigurationManager(
            manual_floorplan, allowed_modes={"A": ["mode1"]}
        )
        policy = ResolveViaService(resolve_latency=0.5)
        # unknown mode and unknown region block without burning a re-solve
        unknown_mode = policy.apply(manager, ModeRequest(0.0, "A", "mode9"))
        unknown_region = policy.apply(manager, ModeRequest(1.0, "nope", "mode1"))
        assert not unknown_mode.ok and not unknown_region.ok
        assert policy.resolve_count == 0


class _SwapOnA(Policy):
    """Test double: the first request for region A swaps in a new manager."""

    name = "swap-on-a"

    def __init__(self, replacement, extra_time=2.0):
        self.replacement = replacement
        self.extra_time = extra_time
        self.swapped = False

    def apply(self, manager, request):
        if request.region == "A" and not self.swapped:
            self.swapped = True
            return PolicyOutcome(
                ok=True,
                action="resolve+reconfigure",
                frames=0,
                extra_time=self.extra_time,
                new_manager=self.replacement,
            )
        bitstream = manager.reconfigure(request.region, request.mode)
        return PolicyOutcome(ok=True, action="reconfigure", frames=bitstream.num_frames)


class TestManagerSwapStall:
    def test_swap_stalls_every_port_until_complete(self, manual_floorplan):
        schedule = round_robin_schedule(["A", "B"], modes_per_region=1, rounds=1)
        policy = _SwapOnA(ReconfigurationManager(manual_floorplan), extra_time=2.0)
        engine = SimulationEngine(
            ReconfigurationManager(manual_floorplan),
            traffic=TraceReplayTraffic(schedule),
            policy=policy,
            config=SimConfig(horizon=10.0, seconds_per_frame=1e-3, num_ports=2),
        )
        result = engine.run()
        assert result.refloorplans == 1
        by_region = {record.region: record for record in result.stats.records}
        # with 2 ports B would normally start instantly; the swap stalls it
        assert by_region["A"].wait == 0.0
        assert by_region["B"].wait == pytest.approx(2.0)
        assert by_region["B"].ok


class TestEngineFaultEdgeCases:
    def test_fault_on_unknown_region_is_ignored_not_recorded(self, manual_floorplan):
        engine = SimulationEngine(
            ReconfigurationManager(manual_floorplan),
            traffic=TraceReplayTraffic(
                round_robin_schedule(["A"], modes_per_region=1, rounds=1)
            ),
            policy=ReconfigureInPlace(),
            faults=ScheduledFaults([(0.5, "NOPE")]),
            config=SimConfig(horizon=10.0),
        )
        result = engine.run()
        assert result.stats.fault_times == []
        assert result.trace_summary()["fault"] == 0
        assert len(result.stats.served) == 1
