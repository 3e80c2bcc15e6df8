"""Tests of the run-time manager, scheduler and trace."""

import warnings

import pytest

from repro.runtime import (
    BitstreamCache,
    EventKind,
    ModeSchedule,
    ReconfigurationError,
    ReconfigurationManager,
    round_robin_schedule,
)
from repro.runtime.scheduler import random_schedule


@pytest.fixture(scope="module")
def managed_floorplan(tiny_relocation_solution):
    report, _ = tiny_relocation_solution
    return report.floorplan


class TestScheduler:
    def test_round_robin(self):
        schedule = round_robin_schedule(["A", "B"], modes_per_region=2, rounds=3)
        assert len(schedule) == 6
        assert schedule.regions() == ["A", "B"]
        assert schedule.activations_per_region() == {"A": 3, "B": 3}

    def test_random_schedule_is_seeded(self):
        a = random_schedule(["A", "B"], length=10, seed=5)
        b = random_schedule(["A", "B"], length=10, seed=5)
        assert a.steps == b.steps
        with pytest.raises(ValueError):
            random_schedule([], length=3)


class TestDwellTimes:
    def test_untimed_schedule_has_zero_dwells_and_duration(self):
        schedule = round_robin_schedule(["A", "B"], rounds=1)
        assert schedule.dwells == ()
        assert schedule.duration == 0.0
        assert schedule.dwell_at(0) == 0.0
        assert all(time == 0.0 for time, _, _ in schedule.timed_steps())

    def test_with_dwells_produces_cumulative_timed_steps(self):
        schedule = ModeSchedule(steps=(("A", "mode1"), ("B", "mode2")))
        timed = schedule.with_dwells([2.0, 3.0])
        assert timed.duration == 5.0
        assert timed.timed_steps() == [(0.0, "A", "mode1"), (2.0, "B", "mode2")]
        # the untimed view is unchanged: steps convert losslessly
        assert timed.steps == schedule.steps

    def test_dwell_validation(self):
        with pytest.raises(ValueError):
            ModeSchedule(steps=(("A", "mode1"),), dwells=(1.0, 2.0))
        with pytest.raises(ValueError):
            ModeSchedule(steps=(("A", "mode1"),), dwells=(-1.0,))
        with pytest.raises(ValueError):
            random_schedule(["A"], length=3, dwell_mean=-1.0)

    def test_random_schedule_dwell_mean_keeps_steps_stable(self):
        untimed = random_schedule(["A", "B"], length=10, seed=5)
        timed = random_schedule(["A", "B"], length=10, seed=5, dwell_mean=2.0)
        assert timed.steps == untimed.steps
        assert len(timed.dwells) == 10
        assert all(dwell >= 0 for dwell in timed.dwells)


class TestDeprecatedAlias:
    def test_removed_alias_is_gone(self):
        import repro.runtime as runtime
        import repro.runtime.manager as manager_module

        for module in (runtime, manager_module):
            with pytest.raises(AttributeError):
                module.RuntimeError_

    def test_regular_imports_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.runtime import ReconfigurationManager  # noqa: F401
            from repro.runtime.manager import ReconfigurationError  # noqa: F401

    def test_star_import_does_not_warn(self):
        import repro.runtime as runtime

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            # what `from repro.runtime import *` resolves: every __all__ name
            for name in runtime.__all__:
                getattr(runtime, name)

    def test_unknown_attribute_still_raises(self):
        import repro.runtime as runtime

        with pytest.raises(AttributeError):
            runtime.no_such_name


class TestBitstreamCache:
    def test_lru_eviction_and_counters(self):
        cache = BitstreamCache(capacity=2)
        cache.put(("r", "m1", (0, 0, 1, 1)), "bs1")
        cache.put(("r", "m2", (0, 0, 1, 1)), "bs2")
        assert cache.get(("r", "m1", (0, 0, 1, 1))) == "bs1"  # refresh m1
        cache.put(("r", "m3", (0, 0, 1, 1)), "bs3")  # evicts m2 (LRU)
        assert cache.get(("r", "m2", (0, 0, 1, 1))) is None
        assert cache.get(("r", "m3", (0, 0, 1, 1))) == "bs3"
        stats = cache.stats()
        assert stats == {
            "size": 2,
            "capacity": 2,
            "hits": 2,
            "misses": 1,
            "evictions": 1,
            "invalidations": 0,
        }

    def test_drop_device_invalidates_only_that_device(self):
        cache = BitstreamCache(capacity=8)
        cache.put(("dev-a", "r", "m1", (0, 0, 1, 1)), "a1")
        cache.put(("dev-a", "r", "m2", (0, 0, 1, 1)), "a2")
        cache.put(("dev-b", "r", "m1", (0, 0, 1, 1)), "b1")
        assert cache.drop_device("dev-a") == 2
        assert len(cache) == 1
        assert cache.get(("dev-b", "r", "m1", (0, 0, 1, 1))) == "b1"
        assert cache.stats()["invalidations"] == 2
        assert cache.stats()["evictions"] == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BitstreamCache(capacity=0)

    def test_manager_cache_is_bounded(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan, cache_capacity=2)
        for mode in ("mode1", "mode2", "mode3"):
            manager.reconfigure("beta", mode)
        stats = manager.cache_stats()
        assert stats["size"] <= 2
        assert stats["evictions"] >= 1
        assert stats["misses"] >= 3

    def test_repeat_mode_cycle_hits_the_cache(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        for _ in range(3):
            manager.reconfigure("beta", "mode1")
            manager.reconfigure("beta", "mode2")
        stats = manager.cache_stats()
        assert stats["hits"] == 4
        assert stats["misses"] == 2

    def test_external_cache_shared_between_managers(self, managed_floorplan):
        shared = BitstreamCache(capacity=16)
        first = ReconfigurationManager(managed_floorplan, cache=shared)
        first.reconfigure("beta", "mode1")
        second = ReconfigurationManager(managed_floorplan, cache=shared)
        second.reconfigure("beta", "mode1")
        assert shared.hits == 1  # the second manager reused the first's bitstream
        assert shared.misses == 1


class TestManager:
    def test_requires_complete_floorplan(self, tiny_problem):
        from repro.floorplan.placement import Floorplan

        with pytest.raises(ReconfigurationError):
            ReconfigurationManager(Floorplan(problem=tiny_problem))

    def test_configure_then_reconfigure(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        first = manager.reconfigure("beta", "mode1")
        assert manager.active_module("beta") == "mode1"
        assert manager.memory.verify(first)
        manager.reconfigure("beta", "mode2")
        assert manager.active_module("beta") == "mode2"
        assert manager.trace.count(EventKind.CONFIGURE) == 1
        assert manager.trace.count(EventKind.RECONFIGURE) == 1

    def test_relocate_uses_reserved_area(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        manager.reconfigure("beta", "mode1")
        home = manager.current_location("beta")
        targets = manager.available_relocation_targets("beta")
        assert targets, "the floorplan reserved a free-compatible area for beta"
        relocated = manager.relocate("beta")
        assert manager.current_location("beta") != home
        assert manager.memory.verify(relocated)
        assert manager.trace.count(EventKind.RELOCATE) == 1
        # moving back home also works
        manager.return_home("beta")
        assert manager.current_location("beta") == home

    def test_relocate_without_loaded_module_rejected(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        with pytest.raises(ReconfigurationError):
            manager.relocate("beta")

    def test_relocate_without_reserved_area_rejected(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        manager.reconfigure("alpha", "mode1")  # alpha has no reserved areas
        with pytest.raises(ReconfigurationError):
            manager.relocate("alpha")
        assert manager.trace.count(EventKind.REJECT) == 1

    def test_unknown_region_rejected(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        with pytest.raises(ReconfigurationError):
            manager.reconfigure("nope", "mode1")

    def test_schedule_replay_counts_frames(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        schedule = round_robin_schedule(list(managed_floorplan.placements), rounds=2)
        for region, mode in schedule:
            manager.reconfigure(region, mode)
        summary = manager.trace.summary()
        assert summary["configure"] == len(managed_floorplan.placements)
        assert summary["reconfigure"] == len(schedule) - len(managed_floorplan.placements)
        assert summary["frames_written"] > 0
        assert len(manager.trace) == len(schedule)


class TestAvailableRelocationTargets:
    """Occupied-area exclusion in ``available_relocation_targets``."""

    @pytest.fixture()
    def crowded_manager(self, two_type_device):
        from repro.device.resources import ResourceVector
        from repro.floorplan.geometry import Rect
        from repro.floorplan.placement import Floorplan
        from repro.floorplan.problem import FloorplanProblem, Region

        regions = [
            Region("A", ResourceVector(CLB=4)),
            Region("B", ResourceVector(CLB=4)),
        ]
        problem = FloorplanProblem(two_type_device, regions, name="targets")
        # A and B each get a reserved area, but both reservations share ONE
        # rectangle — whoever relocates first occupies it for the other
        shared = Rect(2, 0, 2, 2)
        floorplan = Floorplan.from_rects(
            problem,
            {"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 2, 2)},
            free_rects={"A 1": (shared, "A"), "B 1": (shared, "B")},
        )
        manager = ReconfigurationManager(floorplan)
        manager.reconfigure("A", "m1")
        manager.reconfigure("B", "m1")
        return manager, shared

    def test_free_area_visible_while_unoccupied(self, crowded_manager):
        manager, shared = crowded_manager
        assert manager.available_relocation_targets("A") == [shared]
        assert manager.available_relocation_targets("B") == [shared]

    def test_area_occupied_by_other_region_is_excluded(self, crowded_manager):
        manager, shared = crowded_manager
        manager.relocate("A", target=shared)
        # B's only reserved area is now hosting A's module
        assert manager.available_relocation_targets("B") == []
        # ...and A's own current rectangle is excluded from its own targets
        assert manager.available_relocation_targets("A") == []
        with pytest.raises(ReconfigurationError):
            manager.relocate("B")

    def test_area_freed_again_after_return_home(self, crowded_manager):
        manager, shared = crowded_manager
        manager.relocate("A", target=shared)
        manager.return_home("A")
        assert manager.available_relocation_targets("B") == [shared]

    def test_unsatisfied_soft_area_is_excluded(self, crowded_manager):
        from repro.floorplan.geometry import Rect
        from repro.floorplan.placement import RegionPlacement

        manager, shared = crowded_manager
        manager.floorplan.free_areas["B 2"] = RegionPlacement(
            name="B 2", rect=Rect(7, 0, 2, 2), compatible_with="B", satisfied=False
        )
        assert manager.available_relocation_targets("B") == [shared]


class TestFailurePaths:
    """Runtime failure paths: unknown regions/modes and fault-masked placements."""

    def test_unknown_region_everywhere(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        for call in (
            lambda: manager.reconfigure("nope", "mode1"),
            lambda: manager.relocate("nope"),
            lambda: manager.current_location("nope"),
            lambda: manager.available_relocation_targets("nope"),
        ):
            with pytest.raises(ReconfigurationError, match="unknown region"):
                call()

    def test_unknown_mode_rejected_when_modes_are_declared(self, managed_floorplan):
        manager = ReconfigurationManager(
            managed_floorplan, allowed_modes={"beta": ["mode1", "mode2"]}
        )
        manager.reconfigure("beta", "mode1")
        with pytest.raises(ReconfigurationError, match="unknown mode"):
            manager.reconfigure("beta", "mode9")
        # the rejection is traced and the active module is unchanged
        assert manager.trace.count(EventKind.REJECT) == 1
        assert manager.active_module("beta") == "mode1"
        # a region absent from the table accepts nothing
        with pytest.raises(ReconfigurationError, match="unknown mode"):
            manager.reconfigure("alpha", "mode1")

    def test_relocation_with_no_compatible_free_area(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        manager.reconfigure("alpha", "mode1")  # alpha has no reserved areas
        with pytest.raises(ReconfigurationError, match="no free-compatible area"):
            manager.relocate("alpha")
        assert manager.trace.count(EventKind.REJECT) == 1

    def test_fault_masked_reconfigure_rejected(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        manager.reconfigure("beta", "mode1")
        manager.inject_fault(manager.current_location("beta"), detail="test fault")
        with pytest.raises(ReconfigurationError, match="fault-masked"):
            manager.reconfigure("beta", "mode2")
        assert manager.trace.count(EventKind.FAULT) == 1
        assert manager.trace.count(EventKind.REJECT) == 1
        assert manager.active_module("beta") == "mode1"

    def test_fault_masked_relocation_target_rejected(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        manager.reconfigure("beta", "mode1")
        targets = manager.available_relocation_targets("beta")
        assert targets
        manager.inject_fault(targets[0])
        # the masked rectangle vanishes from the available targets...
        assert targets[0] not in manager.available_relocation_targets("beta")
        # ...and an explicit request for it is rejected
        with pytest.raises(ReconfigurationError, match="fault-masked"):
            manager.relocate("beta", target=targets[0])

    def test_clear_faults_restores_operation(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        manager.reconfigure("beta", "mode1")
        manager.inject_fault(manager.current_location("beta"))
        assert manager.faulty_rects
        manager.clear_faults()
        assert not manager.faulty_rects
        manager.reconfigure("beta", "mode2")
        assert manager.active_module("beta") == "mode2"


class TestTimedTrace:
    def test_clock_hook_stamps_trace_events(self, managed_floorplan):
        times = iter([1.5, 2.5, 4.0])
        manager = ReconfigurationManager(
            managed_floorplan, clock=lambda: next(times)
        )
        manager.reconfigure("beta", "mode1")
        manager.reconfigure("beta", "mode2")
        manager.relocate("beta")
        assert [event.time for event in manager.trace] == [1.5, 2.5, 4.0]

    def test_untimed_managers_record_time_zero(self, managed_floorplan):
        manager = ReconfigurationManager(managed_floorplan)
        manager.reconfigure("beta", "mode1")
        assert manager.trace.events[0].time == 0.0
