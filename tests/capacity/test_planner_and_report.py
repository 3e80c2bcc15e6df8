"""Tests of the capacity planner, SLO evaluation and deterministic reports."""

import collections

import pytest

from repro.capacity import (
    CapacityScenario,
    CapacitySLO,
    DeviceProfile,
    capacity_curve,
    evaluate_slo,
    plan_document,
    plan_min_devices,
    render_json,
    render_markdown,
)
from repro.capacity.__main__ import main as capacity_main
from repro.sim.faults import RandomFaults


def scenario(rate=60.0, **kwargs):
    profile = DeviceProfile(
        name="dev",
        frame_counts={"A": 100, "B": 150},
        seconds_per_frame=1e-3,  # ~8 req/s of capacity per device
    )
    defaults = dict(horizon=30.0, seed=0)
    defaults.update(kwargs)
    return CapacityScenario(profile=profile, rate=rate, **defaults)


SLO = CapacitySLO(
    max_p99_latency_s=0.5, max_blocking=0.02, min_throughput_fraction=0.95
)


class TestPlanMinDevices:
    def test_finds_a_minimal_passing_size(self):
        outcome = plan_min_devices(scenario(), SLO, max_devices=64)
        assert outcome.min_devices is not None
        # minimal: the found size passes, one fewer fails
        result = scenario().build(outcome.min_devices).run()
        assert evaluate_slo(result, SLO).ok
        if outcome.min_devices > 1:
            below = scenario().build(outcome.min_devices - 1).run()
            assert not evaluate_slo(below, SLO).ok

    def test_search_is_deterministic(self):
        first = plan_min_devices(scenario(), SLO, max_devices=64)
        second = plan_min_devices(scenario(), SLO, max_devices=64)
        assert first.min_devices == second.min_devices
        assert [e.metrics for e in first.evaluations] == [
            e.metrics for e in second.evaluations
        ]

    def test_unreachable_slo_returns_none(self):
        # consistent-hash over two region keys can use at most two devices,
        # so this offered load can never meet the SLO no matter the fleet
        outcome = plan_min_devices(
            scenario(dispatcher="consistent-hash"), SLO, max_devices=32
        )
        assert outcome.min_devices is None
        assert all(not evaluation.ok for evaluation in outcome.evaluations)

    def test_evaluations_record_search_trajectory(self):
        outcome = plan_min_devices(scenario(), SLO, max_devices=64)
        sizes = [evaluation.num_devices for evaluation in outcome.evaluations]
        assert len(sizes) == len(set(sizes))  # each size evaluated once
        assert outcome.evaluation_for(outcome.min_devices).ok

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            CapacitySLO(max_p99_latency_s=0.0)
        with pytest.raises(ValueError):
            CapacitySLO(max_blocking=1.5)
        with pytest.raises(ValueError):
            CapacitySLO(min_throughput_fraction=0.0)


class TestCapacityCurve:
    def test_min_devices_nondecreasing_in_load(self):
        curve = capacity_curve(scenario(), SLO, [0.5, 1.0, 1.5], max_devices=64)
        sizes = [point["min_devices"] for point in curve]
        assert all(size is not None for size in sizes)
        assert sizes == sorted(sizes)

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            capacity_curve(scenario(), SLO, [0.0])

    def test_draws_each_device_fault_plan_once_per_curve(self, monkeypatch):
        draws = collections.Counter()
        events = RandomFaults.events

        def counted(plan, horizon):
            draws[plan.seed] += 1
            return events(plan, horizon)

        monkeypatch.setattr(RandomFaults, "events", counted)
        faulty = scenario(fault_rate=0.05)
        multipliers = [0.5, 1.0, 1.5, 2.0]
        curve = capacity_curve(faulty, SLO, multipliers, max_devices=64)
        assert draws and set(draws.values()) == {1}
        # the largest plan evaluates the most devices, and each has one seed
        largest = max(point["min_devices"] for point in curve)
        assert set(range(1000, 1000 + largest)) <= set(draws)

        draws.clear()
        separate = [
            plan_min_devices(faulty, SLO, max_devices=64, rate_multiplier=multiplier)
            for multiplier in multipliers
        ]
        assert max(draws.values()) > 1  # separate plans re-draw shared seeds
        assert [point["min_devices"] for point in curve] == [
            outcome.min_devices for outcome in separate
        ]
        assert [point["metrics"] for point in curve] == [
            outcome.evaluation_for(outcome.min_devices).metrics for outcome in separate
        ]


class TestReports:
    def test_json_byte_identical_across_runs(self):
        def render():
            outcome = plan_min_devices(scenario(), SLO, max_devices=64)
            curve = capacity_curve(scenario(), SLO, [0.5, 1.0], max_devices=64)
            return render_json(plan_document(scenario(), SLO, outcome, curve=curve))

        assert render() == render()

    def test_document_schema_and_content(self):
        outcome = plan_min_devices(scenario(), SLO, max_devices=64)
        document = plan_document(scenario(), SLO, outcome)
        assert document["schema"] == "repro.capacity/1"
        assert document["min_devices"] == outcome.min_devices
        assert document["scenario"]["regions"] == {"A": 100, "B": 150}
        assert len(document["search"]) == len(outcome.evaluations)

    def test_markdown_mentions_the_answer(self):
        outcome = plan_min_devices(scenario(), SLO, max_devices=64)
        markdown = render_markdown(plan_document(scenario(), SLO, outcome))
        assert f"Minimum fleet size: {outcome.min_devices} device(s)" in markdown
        assert "## Search trajectory" in markdown


class TestCli:
    def test_writes_deterministic_json(self, tmp_path):
        args = [
            "--rate", "60", "--horizon", "20", "--seconds-per-frame", "0.001",
            "--p99", "0.5", "--quiet",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert capacity_main(args + ["--json", str(first)]) == 0
        assert capacity_main(args + ["--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_exit_code_2_when_unreachable(self, tmp_path):
        code = capacity_main(
            [
                "--rate", "500", "--horizon", "10", "--seconds-per-frame", "0.001",
                "--dispatcher", "consistent-hash", "--max-devices", "8", "--quiet",
            ]
        )
        assert code == 2
