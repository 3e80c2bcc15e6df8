"""Unit coverage for the chaos harness: schedules, invariants, actions.

Everything here runs against stub managers and temp directories — no fleet
processes.  The full experiment loop lives in ``test_chaos_e2e.py``.
"""

import pytest

from repro.chaos import (
    ChaosContext,
    ChaosEvent,
    ChaosPlan,
    CorruptCacheEntry,
    FillCacheDir,
    InvariantViolation,
    KillReplica,
    PauseReplica,
    RequestOutcome,
    SlowReplica,
    check_invariants,
    random_plan,
)
from repro.service.cache import SolveCache
from repro.service.results import JobResult


class StubManager:
    """Records signals instead of delivering them."""

    def __init__(self) -> None:
        self.calls = []

    def kill_replica(self, index):
        self.calls.append(("kill", index))

    def pause_replica(self, index):
        self.calls.append(("pause", index))

    def resume_replica(self, index):
        self.calls.append(("resume", index))


def make_ctx(tmp_path) -> ChaosContext:
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir(exist_ok=True)
    return ChaosContext(manager=StubManager(), cache_dir=cache_dir)


def stored_result(fingerprint: str = "a" * 64) -> JobResult:
    return JobResult(
        fingerprint=fingerprint, job_name="chaos", status="optimal", feasible=True,
        objective=1.0, solve_time=0.01, wall_time=0.01, backend="test", mode="HO",
    )


def outcome(
    offset=0.0, status=200, latency=0.01, headers=None, body="default"
) -> RequestOutcome:
    if body == "default":
        body = {
            "fingerprint": "f" * 64,
            "cached": False,
            "degraded": False,
            "result": {"status": "optimal"},
        }
    return RequestOutcome(offset, status, latency, headers or {}, body)


class TestPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="time"):
            ChaosEvent(-1.0, KillReplica(0))
        with pytest.raises(ValueError, match="duration"):
            ChaosEvent(1.0, PauseReplica(0), duration=0.0)

    def test_events_are_time_ordered_and_horizon_filtered(self):
        plan = ChaosPlan([
            ChaosEvent(5.0, KillReplica(0)),
            ChaosEvent(1.0, PauseReplica(1), duration=0.5),
            ChaosEvent(3.0, KillReplica(1)),
        ])
        assert len(plan) == 3
        times = [event.time for event in plan.events(horizon=4.0)]
        assert times == [1.0, 3.0]  # sorted, and t=5 excluded

    def test_describe_names_every_fault(self):
        plan = ChaosPlan([ChaosEvent(1.5, PauseReplica(1), duration=0.75)])
        assert plan.describe() == ["t=1.50s PauseReplica(1) for 0.75s"]

    def test_random_plan_is_deterministic_per_seed(self):
        first = random_plan(replicas=2, rate=2.0, horizon=10.0, seed=7)
        second = random_plan(replicas=2, rate=2.0, horizon=10.0, seed=7)
        assert first.describe() == second.describe()
        assert len(first) > 0

    def test_random_plan_seeds_differ(self):
        first = random_plan(replicas=2, rate=2.0, horizon=10.0, seed=1)
        second = random_plan(replicas=2, rate=2.0, horizon=10.0, seed=2)
        assert first.describe() != second.describe()

    def test_random_plan_respects_settle(self):
        plan = random_plan(replicas=2, rate=3.0, horizon=10.0, seed=0, settle=2.0)
        assert all(event.time >= 2.0 for event in plan.events(horizon=10.0))

    def test_random_plan_can_exclude_cache_faults(self):
        plan = random_plan(
            replicas=2, rate=5.0, horizon=20.0, seed=0, include_cache_faults=False
        )
        for event in plan.events(horizon=20.0):
            assert isinstance(
                event.action, (KillReplica, PauseReplica, SlowReplica)
            ), event.action.name

    def test_random_plan_draws_every_catalogue_action_and_nothing_else(self):
        catalogue = (KillReplica, PauseReplica, SlowReplica, CorruptCacheEntry, FillCacheDir)
        drawn = set()
        for seed in range(10):
            plan = random_plan(replicas=2, rate=5.0, horizon=20.0, seed=seed)
            for event in plan.events(horizon=20.0):
                assert isinstance(event.action, catalogue), event.action.name
                drawn.add(type(event.action))
        assert drawn == set(catalogue)

    def test_random_plan_validates_replicas(self):
        with pytest.raises(ValueError, match="replicas"):
            random_plan(replicas=0, rate=1.0, horizon=5.0)


class TestInvariants:
    def test_clean_run_has_no_violations(self):
        outcomes = [outcome(offset=i * 0.1) for i in range(10)]
        assert check_invariants(outcomes) == []

    def test_lost_requests_are_flagged(self):
        outcomes = [outcome(), outcome(status=599, body=None)]
        violations = check_invariants(outcomes)
        assert [v.invariant for v in violations] == ["no_request_lost"]
        assert "1 of 2" in violations[0].detail

    def test_corrupt_200_is_flagged(self):
        bad = outcome(body={"fingerprint": "", "result": {"status": "optimal"}})
        weird = outcome(body={"fingerprint": "f" * 64, "result": {"status": "chaos"}})
        violations = check_invariants([outcome(), bad, weird])
        assert [v.invariant for v in violations] == ["no_corrupt_result"]
        assert "2 200-responses" in violations[0].detail

    def test_degraded_200_without_a_feasible_result_is_flagged(self):
        served = outcome(body={
            "fingerprint": "f" * 64, "degraded": True,
            "result": {"status": "feasible", "feasible": True},
        })
        empty = outcome(body={
            "fingerprint": "f" * 64, "degraded": True,
            "result": {"status": "time_limit", "feasible": False},
        })
        assert check_invariants([outcome(), served]) == []
        violations = check_invariants([outcome(), served, empty])
        assert [v.invariant for v in violations] == ["no_corrupt_result"]
        assert "1 200-responses" in violations[0].detail

    def test_shed_without_retry_after_is_flagged(self):
        honest = outcome(status=429, headers={"retry-after": "1"}, body={"error": "shed"})
        naked = outcome(status=503, headers={}, body={"error": "shed"})
        violations = check_invariants([honest, naked])
        assert [v.invariant for v in violations] == ["retry_after_on_shed"]
        assert "1x 503" in violations[0].detail

    def test_tail_bound_applies_only_inside_fault_windows(self):
        slow_outside = outcome(offset=0.5, latency=100.0)
        fast_inside = [outcome(offset=2.0 + i * 0.01) for i in range(5)]
        violations = check_invariants(
            [slow_outside] + fast_inside,
            fault_windows=[(1.5, 3.0)],
            p99_bound_s=5.0,
        )
        assert violations == []  # the slow one was sent before the fault

        slow_inside = outcome(offset=2.0, latency=100.0)
        violations = check_invariants(
            [slow_inside], fault_windows=[(1.5, 3.0)], p99_bound_s=5.0
        )
        assert [v.invariant for v in violations] == ["bounded_tail_under_faults"]

    def test_violation_str_is_self_describing(self):
        violation = InvariantViolation("no_request_lost", "3 of 9 died")
        assert str(violation) == "[no_request_lost] 3 of 9 died"


class TestProcessActions:
    def test_kill_pause_slow_signal_the_manager(self, tmp_path):
        ctx = make_ctx(tmp_path)
        KillReplica(1).apply(ctx)
        assert ctx.manager.calls == [("kill", 1)]

        ctx = make_ctx(tmp_path)
        action = PauseReplica(0)
        action.apply(ctx)
        action.revert(ctx)
        assert ctx.manager.calls == [("pause", 0), ("resume", 0)]

    def test_slow_replica_duty_cycles_then_always_resumes(self, tmp_path):
        import time

        ctx = make_ctx(tmp_path)
        action = SlowReplica(0, stall=0.01, period=0.03)
        action.apply(ctx)
        time.sleep(0.1)
        action.revert(ctx)
        pauses = [call for call in ctx.manager.calls if call == ("pause", 0)]
        assert len(pauses) >= 1
        assert ctx.manager.calls[-1] == ("resume", 0)  # never left frozen

    def test_slow_replica_validates_duty_cycle(self):
        with pytest.raises(ValueError, match="stall"):
            SlowReplica(0, stall=0.2, period=0.1)


class TestCacheActions:
    def test_corrupt_cache_entry_round_trip(self, tmp_path):
        ctx = make_ctx(tmp_path)
        victim = ctx.cache_dir / ("a" * 64 + ".json")
        victim.write_text('{"status": "optimal"}')
        action = CorruptCacheEntry()
        action.apply(ctx)
        assert b"chaos" in victim.read_bytes()  # garbage, not JSON
        action.revert(ctx)
        assert not victim.exists()

    def test_corrupt_cache_entry_on_empty_dir_is_a_no_op(self, tmp_path):
        ctx = make_ctx(tmp_path)
        action = CorruptCacheEntry()
        action.apply(ctx)
        action.revert(ctx)
        assert list(ctx.cache_dir.iterdir()) == []

    def test_corrupted_entry_is_a_counted_miss_for_a_replica_never_served(self, tmp_path):
        ctx = make_ctx(tmp_path)
        SolveCache(ctx.cache_dir).put(stored_result())
        action = CorruptCacheEntry()
        action.apply(ctx)
        replica = SolveCache(ctx.cache_dir)
        assert replica.get("a" * 64) is None
        assert replica.stats.corrupt == 1
        assert list(ctx.cache_dir.iterdir()) == []  # the carcass is deleted
        action.revert(ctx)  # nothing left to unlink: must not raise

    def test_filled_cache_dir_turns_stores_into_store_errors_until_reverted(self, tmp_path):
        ctx = make_ctx(tmp_path)
        cache = SolveCache(ctx.cache_dir)
        action = FillCacheDir()
        action.apply(ctx)
        cache.put(stored_result("a" * 64))
        assert cache.stats.store_errors == 1
        assert cache.get("a" * 64) is not None  # memory still answers
        action.revert(ctx)
        cache.put(stored_result("d" * 64))
        assert cache.stats.store_errors == 1
        replica = SolveCache(ctx.cache_dir)
        assert replica.get("a" * 64) is None  # the store during the fault was lost
        assert replica.get("d" * 64) is not None

    def test_fill_cache_dir_hijacks_and_restores_the_path(self, tmp_path):
        ctx = make_ctx(tmp_path)
        entry = ctx.cache_dir / ("c" * 64 + ".json")
        entry.write_text("{}")
        action = FillCacheDir()
        action.apply(ctx)
        assert ctx.cache_dir.is_file()  # mkdir/open under it now raise
        with pytest.raises(OSError):
            (ctx.cache_dir / "x.json").write_text("{}")
        action.revert(ctx)
        assert ctx.cache_dir.is_dir()
        assert entry.exists()  # parked contents came back intact
