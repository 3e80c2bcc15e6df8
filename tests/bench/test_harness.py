"""Coverage for the repro.bench harness: registry, runner, report, compare."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import Delta, compare_reports, format_comparison
from repro.bench.registry import Benchmark, BenchmarkRegistry, benchmark
from repro.bench.report import (
    SCHEMA_VERSION,
    BenchReport,
    BenchResult,
    load_report,
    save_report,
    summarize,
)
from repro.bench.runner import BenchProfile, Workload, run_benchmark, run_suite


def _make_registry_with(name="group.case", units=3.0):
    registry = BenchmarkRegistry()

    calls = {"count": 0}

    @benchmark(name, registry=registry)
    def case(profile):
        """A counting workload."""

        def run():
            calls["count"] += 1

        return Workload(run, units=units, unit_name="widgets")

    return registry, calls


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_collision_raises():
    registry, _ = _make_registry_with("a.b")
    with pytest.raises(ValueError, match="already registered"):
        registry.register(Benchmark(name="a.b", group="a", factory=lambda p: None))


def test_registry_group_defaults_to_first_dotted_component():
    registry, _ = _make_registry_with("floorplan.thing")
    assert registry.get("floorplan.thing").group == "floorplan"


def test_registry_select_filters_by_substring():
    registry = BenchmarkRegistry()
    for name in ("floorplan.a", "floorplan.b", "milp.c"):
        registry.register(Benchmark(name=name, group="x", factory=lambda p: None))
    assert [b.name for b in registry.select(["floorplan"])] == [
        "floorplan.a",
        "floorplan.b",
    ]
    assert [b.name for b in registry.select(None)] == sorted(registry.names())
    assert registry.select(["nope"]) == []


def test_registry_unknown_name():
    registry = BenchmarkRegistry()
    with pytest.raises(KeyError, match="unknown benchmark"):
        registry.get("missing")


# ----------------------------------------------------------------------
# runner protocol
# ----------------------------------------------------------------------
def test_runner_warmup_plus_repeats_call_counts():
    registry, calls = _make_registry_with()
    profile = BenchProfile(name="quick", warmup=2, repeats=7)
    measurement = run_benchmark(registry.get("group.case"), profile)
    assert calls["count"] == 9  # 2 warmup + 7 timed
    assert len(measurement.times) == 7
    assert all(t >= 0 for t in measurement.times)
    assert measurement.units == 3.0


def test_runner_extras_and_teardown():
    registry = BenchmarkRegistry()
    events = []

    @benchmark("srv.load", registry=registry)
    def srv_load(profile):
        def run():
            workload.extras["p99_ms"] = 4.5
            workload.extras["shed_rate"] = 0.0

        workload = Workload(run, units=2.0, unit_name="requests")
        workload.teardown = lambda: events.append("teardown")
        return workload

    measurement = run_benchmark(registry.get("srv.load"), BenchProfile.quick())
    assert measurement.extras == {"p99_ms": 4.5, "shed_rate": 0.0}
    assert events == ["teardown"]  # called exactly once, after the last round

    report = summarize([measurement], "quick")
    assert report.result("srv.load").extras["p99_ms"] == 4.5


def test_runner_teardown_runs_even_when_a_round_raises():
    registry = BenchmarkRegistry()
    events = []

    @benchmark("srv.boom", registry=registry)
    def srv_boom(profile):
        def run():
            raise RuntimeError("round failed")

        workload = Workload(run)
        workload.teardown = lambda: events.append("teardown")
        return workload

    with pytest.raises(RuntimeError, match="round failed"):
        run_benchmark(registry.get("srv.boom"), BenchProfile.quick())
    assert events == ["teardown"]


def test_report_extras_round_trip_and_optional(tmp_path):
    registry = BenchmarkRegistry()

    @benchmark("srv.extras", registry=registry)
    def srv_extras(profile):
        workload = Workload(lambda: None)
        workload.extras["hit_rate"] = 1.0
        return workload

    measurement = run_benchmark(registry.get("srv.extras"), BenchProfile.quick())
    report = summarize([measurement], "quick")
    loaded = load_report(save_report(report, tmp_path / "extras.json"))
    assert loaded.result("srv.extras").extras == {"hit_rate": 1.0}

    # a pre-extras snapshot (no "extras" key anywhere) still loads
    data = report.to_dict()
    for entry in data["results"]:
        entry.pop("extras", None)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(data))
    assert load_report(legacy).result("srv.extras").extras == {}


def test_runner_rejects_non_workload_factories():
    registry = BenchmarkRegistry()
    registry.register(Benchmark(name="bad.case", group="bad", factory=lambda p: object()))
    with pytest.raises(TypeError, match="must return a Workload"):
        run_benchmark(registry.get("bad.case"), BenchProfile.quick())


def test_run_suite_respects_patterns():
    registry, calls = _make_registry_with("one.a")

    @benchmark("two.b", registry=registry)
    def other(profile):
        return Workload(lambda: None)

    measurements = run_suite(
        BenchProfile(name="quick", warmup=0, repeats=1),
        patterns=["one"],
        registry=registry,
    )
    assert [m.benchmark.name for m in measurements] == ["one.a"]
    assert calls["count"] == 1


def test_profile_by_name_and_scaled():
    assert BenchProfile.by_name("quick").scaled(10, 99) == 10
    assert BenchProfile.by_name("full").scaled(10, 99) == 99
    with pytest.raises(ValueError):
        BenchProfile.by_name("medium")


# ----------------------------------------------------------------------
# report round-trip
# ----------------------------------------------------------------------
def _run_report(tmp_path, name="group.case"):
    registry, _ = _make_registry_with(name)
    profile = BenchProfile(name="quick", warmup=1, repeats=5)
    measurements = run_suite(profile, registry=registry)
    return summarize(measurements, profile.name)


def test_report_json_round_trip(tmp_path):
    report = _run_report(tmp_path)
    path = save_report(report, tmp_path / "BENCH_test.json")
    loaded = load_report(path)
    assert loaded.schema_version == SCHEMA_VERSION
    assert loaded.profile == "quick"
    assert loaded.names() == report.names()
    original = report.result("group.case")
    restored = loaded.result("group.case")
    assert restored == original  # dataclass equality covers every field
    assert restored.repeats == 5
    assert restored.unit_name == "widgets"
    assert restored.p10_s <= restored.median_s <= restored.p90_s


def test_report_rejects_wrong_schema_version(tmp_path):
    report = _run_report(tmp_path)
    data = report.to_dict()
    data["schema_version"] = SCHEMA_VERSION + 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="unsupported benchmark report schema"):
        load_report(path)


def test_report_rejects_missing_fields(tmp_path):
    report = _run_report(tmp_path)
    data = report.to_dict()
    del data["git_rev"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="missing field"):
        load_report(path)


def test_result_rejects_unknown_and_missing_fields():
    base = {
        "name": "x",
        "group": "g",
        "repeats": 1,
        "warmup": 0,
        "median_s": 1.0,
        "p10_s": 1.0,
        "p90_s": 1.0,
        "mean_s": 1.0,
        "min_s": 1.0,
        "units": 1.0,
        "unit_name": "ops",
        "throughput": 1.0,
        "peak_rss_kb": None,
    }
    with pytest.raises(ValueError, match="unknown"):
        BenchResult.from_dict({**base, "bogus": 1})
    missing = dict(base)
    del missing["median_s"]
    with pytest.raises(ValueError, match="missing"):
        BenchResult.from_dict(missing)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _report_with(medians, rev="aaaa"):
    results = [
        BenchResult(
            name=name,
            group=name.split(".")[0],
            repeats=5,
            warmup=1,
            median_s=median,
            p10_s=median,
            p90_s=median,
            mean_s=median,
            min_s=median,
            units=1.0,
            unit_name="ops",
            throughput=1.0 / median if median else float("inf"),
            peak_rss_kb=None,
        )
        for name, median in medians.items()
    ]
    return BenchReport(
        results=results,
        git_rev=rev,
        python_version="3.11.0",
        platform="linux",
        profile="quick",
        created_unix=0,
    )


def test_compare_flags_regressions_past_threshold():
    old = _report_with({"a.x": 0.100, "a.y": 0.100})
    new = _report_with({"a.x": 0.130, "a.y": 0.110})
    result = compare_reports(old, new, threshold=0.25)
    assert [d.name for d in result.regressions] == ["a.x"]
    assert not result.ok
    text = format_comparison(result)
    assert "REGRESSION" in text


def test_compare_within_threshold_is_ok():
    old = _report_with({"a.x": 0.100})
    new = _report_with({"a.x": 0.120})
    result = compare_reports(old, new, threshold=0.25)
    assert result.ok and result.regressions == []


def test_compare_ignores_sub_noise_floor_times():
    # 50 microseconds -> far below the gating floor even though 10x slower
    old = _report_with({"a.x": 0.000005})
    new = _report_with({"a.x": 0.000050})
    assert compare_reports(old, new, threshold=0.25).ok


def test_compare_tracks_one_sided_benchmarks():
    old = _report_with({"a.x": 0.1, "a.gone": 0.1})
    new = _report_with({"a.x": 0.1, "a.fresh": 0.1})
    result = compare_reports(old, new)
    assert result.only_old == ["a.gone"]
    assert result.only_new == ["a.fresh"]
    assert [d.name for d in result.deltas] == ["a.x"]


def test_compare_speedup_and_ratio():
    delta = Delta(name="a.x", old_median_s=0.2, new_median_s=0.1)
    assert delta.speedup == pytest.approx(2.0)
    assert delta.ratio == pytest.approx(0.5)
    assert not delta.is_regression(0.25)


def test_compare_rejects_negative_threshold():
    old = _report_with({"a.x": 0.1})
    with pytest.raises(ValueError):
        compare_reports(old, old, threshold=-0.1)


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_cli_compare_exit_codes(tmp_path, capsys):
    from repro.bench.__main__ import main

    old = _report_with({"a.x": 0.100})
    slow = _report_with({"a.x": 0.200})
    old_path = save_report(old, tmp_path / "old.json")
    slow_path = save_report(slow, tmp_path / "slow.json")

    assert main(["compare", str(old_path), str(old_path)]) == 0
    assert main(["compare", str(old_path), str(slow_path), "--threshold", "0.25"]) == 1
    assert (
        main(["compare", str(old_path), str(slow_path), "--threshold", "0.25", "--warn-only"])
        == 0
    )
    assert main(["compare", str(old_path), str(tmp_path / "missing.json")]) == 2
    assert main(["compare", str(old_path), str(slow_path), "--threshold", "-1"]) == 2
    capsys.readouterr()  # swallow CLI chatter


def test_cli_run_rejects_conflicting_profiles_and_bad_filters(capsys):
    from repro.bench.__main__ import main

    assert main(["--quick", "--full"]) == 2
    assert main(["--quick", "--filter", "no-such-benchmark-anywhere"]) == 2
    capsys.readouterr()


def test_cli_list_prints_registered_names(capsys):
    from repro.bench.__main__ import main
    from repro.bench.registry import REGISTRY

    assert main(["--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == REGISTRY.names()
    assert "floorplan.sp_relations" in out


def test_committed_snapshot_covers_exactly_the_registered_benchmarks():
    from pathlib import Path

    from repro.bench import suite
    from repro.bench.registry import REGISTRY

    suite.load()
    snapshot = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    report = load_report(snapshot / "BENCH_snapshot.json")
    assert sorted(report.names()) == sorted(REGISTRY.names())
