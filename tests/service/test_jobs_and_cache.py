"""Job fingerprinting and the content-addressed solve cache."""

import json

import pytest

from repro.milp import SolverOptions
from repro.relocation import RelocationSpec
from repro.server.metrics import GatewayMetrics
from repro.service import CacheStats, JobResult, SolveCache, SolveJob
from repro.workloads.synthetic import SyntheticWorkloadConfig, config_grid, synthetic_problem


def make_problem(seed: int = 0, num_regions: int = 3):
    return synthetic_problem(
        config=SyntheticWorkloadConfig(num_regions=num_regions, seed=seed)
    )


def make_result(fingerprint: str = "f" * 64, **overrides) -> JobResult:
    payload = dict(
        fingerprint=fingerprint,
        job_name="job",
        status="optimal",
        feasible=True,
        objective=1.5,
        solve_time=0.2,
        wall_time=0.3,
        backend="highs",
        mode="HO",
        metrics={"wasted_frames": 4, "wirelength": 10.0},
    )
    payload.update(overrides)
    return JobResult(**payload)


class TestFingerprint:
    def test_identical_content_same_fingerprint(self):
        # two independently-built, content-identical jobs hash the same
        a = SolveJob(make_problem(seed=3), options=SolverOptions(time_limit=10))
        b = SolveJob(make_problem(seed=3), options=SolverOptions(time_limit=10))
        assert a.problem is not b.problem
        assert a.fingerprint == b.fingerprint

    def test_tag_does_not_change_fingerprint(self):
        a = SolveJob(make_problem(), tag="")
        b = SolveJob(make_problem(), tag="retagged")
        assert a.fingerprint == b.fingerprint
        assert a.name != b.name

    @pytest.mark.parametrize(
        "changes",
        [
            {"mode": "O"},
            {"options": SolverOptions(time_limit=99)},
            {"options": SolverOptions(backend="branch-bound")},
            {"heuristic": "first-fit"},
            {"lexicographic": True},
            {"relocation": RelocationSpec.as_constraint({"R0": 1})},
        ],
    )
    def test_any_spec_change_changes_fingerprint(self, changes):
        base = SolveJob(make_problem())
        variant = SolveJob(make_problem(), **changes)
        assert base.fingerprint != variant.fingerprint

    def test_different_problem_changes_fingerprint(self):
        assert (
            SolveJob(make_problem(seed=0)).fingerprint
            != SolveJob(make_problem(seed=1)).fingerprint
        )

    def test_relocation_order_is_canonical(self):
        problem = make_problem(num_regions=3)
        forward = RelocationSpec.as_constraint({"R0": 1, "R1": 2})
        backward = RelocationSpec.as_constraint({"R1": 2, "R0": 1})
        assert (
            SolveJob(problem, relocation=forward).fingerprint
            == SolveJob(problem, relocation=backward).fingerprint
        )

    def test_problem_and_device_names_are_labels_not_content(self):
        plain = make_problem(seed=2)
        renamed = synthetic_problem(
            config=SyntheticWorkloadConfig(num_regions=3, seed=2), name="other-label"
        )
        assert plain.name != renamed.name
        assert SolveJob(plain).fingerprint == SolveJob(renamed).fingerprint

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SolveJob(make_problem(), mode="X")


class TestJobResultRoundTrip:
    def test_round_trip(self):
        result = make_result()
        again = JobResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert again == result

    def test_nan_objective_survives_json(self):
        result = make_result(objective=float("nan"), feasible=False, status="error")
        encoded = json.dumps(result.as_dict())  # must not emit bare NaN
        again = JobResult.from_dict(json.loads(encoded))
        assert again.objective != again.objective  # NaN

    def test_metric_accessors(self):
        assert make_result().wasted_frames == 4
        assert make_result(metrics=None).wasted_frames is None
        assert make_result().objective_key() < make_result(
            metrics={"wasted_frames": 9, "wirelength": 1.0}
        ).objective_key()
        # infeasible sorts after any feasible result
        assert make_result().objective_key() < make_result(
            feasible=False, metrics=None
        ).objective_key()


class TestSolveCache:
    def test_memory_round_trip(self):
        cache = SolveCache()
        assert cache.get("f" * 64) is None
        cache.put(make_result())
        hit = cache.get("f" * 64)
        assert hit is not None and hit.status == "optimal"
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_disk_round_trip(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put(make_result())
        assert (tmp_path / f"{'f' * 64}.json").exists()

        fresh = SolveCache(tmp_path)  # new process simulation
        hit = fresh.get("f" * 64)
        assert hit is not None
        assert hit.wasted_frames == 4
        assert hit.cached is False  # the flag describes this run

    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path):
        cache = SolveCache(tmp_path)
        bad = tmp_path / f"{'a' * 64}.json"
        bad.write_text("{not json")  # a truncated/interrupted write
        assert cache.get("a" * 64) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt == 1
        assert not bad.exists()  # deleted: re-solved once, not failing forever
        # the slot is fully usable again after the cleanup
        cache.put(make_result(fingerprint="a" * 64))
        assert cache.get("a" * 64) is not None

    def test_schema_mismatched_entry_is_a_miss_but_kept(self, tmp_path):
        cache = SolveCache(tmp_path)
        # valid JSON from an incompatible JobResult schema: possibly written
        # by a NEWER process sharing the directory, so it must not be deleted
        bad = tmp_path / f"{'b' * 64}.json"
        bad.write_text('{"fingerprint": "x", "future_field": 1}')
        assert cache.get("b" * 64) is None
        assert cache.stats.corrupt == 1
        assert bad.exists()

    def test_clear_and_len(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put(make_result())
        cache.put(make_result(fingerprint="e" * 64))
        assert len(cache) == 2
        assert list(cache.fingerprints()) == sorted(["e" * 64, "f" * 64])
        cache.drop_memory()
        assert len(cache) == 2  # still on disk
        cache.clear()
        assert len(cache) == 0

    @pytest.mark.parametrize("halves", [False, True], ids=["get", "memory-then-disk"])
    def test_each_lookup_counts_one_hit_or_miss(self, tmp_path, halves):
        # ``halves`` runs the lookup the way the gateway does: the memory half
        # on the event loop, the disk half only when memory missed
        cache = SolveCache(tmp_path)

        def lookup(fingerprint):
            if not halves:
                return cache.get(fingerprint)
            hit = cache.get_memory(fingerprint)
            return hit if hit is not None else cache.get_disk(fingerprint)

        def counts():
            return cache.stats.hits, cache.stats.misses

        cache.put(make_result())
        assert lookup("f" * 64) is not None  # memory hit
        assert counts() == (1, 0)
        cache.drop_memory()
        assert cache.memory_size == 0
        assert lookup("f" * 64) is not None  # disk-only hit ...
        assert counts() == (2, 0)
        assert cache.memory_size == 1  # ... promoted into memory
        assert cache.get_memory("f" * 64) is not None
        assert counts() == (3, 0)
        assert lookup("a" * 64) is None  # miss in both tiers
        assert counts() == (3, 1)

    def test_memory_half_counts_the_miss_without_a_directory(self):
        cache = SolveCache()
        assert cache.get_memory("f" * 64) is None
        cache.put(make_result())
        assert cache.get_memory("f" * 64) is not None
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_hijacked_directory_counts_store_errors(self, tmp_path):
        # the chaos FillCacheDir shape: the cache directory path is suddenly a
        # plain file, so every mkdir/open underneath it raises OSError
        target = tmp_path / "cache"
        cache = SolveCache(directory=target)
        target.write_bytes(b"chaos: cache tier unavailable\n")
        cache.put(make_result())
        assert cache.stats.store_errors == 1
        assert cache.get("f" * 64) is not None  # the memory tier still answers

    def test_stats(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert set(stats.as_dict()) >= {"hits", "misses", "evictions", "corrupt"}


class TestPerfbenchCompatibility:
    """Names ``perfbench/layers.py`` reads, kept until its metrics go."""

    def test_flight_calls_are_no_ops(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.try_acquire_flight("f" * 64) is True
        assert list(tmp_path.iterdir()) == []
        cache.release_flight("f" * 64)

    def test_flight_waits_counter_reads_zero(self):
        assert GatewayMetrics().counters()["flight_waits"] == 0


class TestSolveCacheLRU:
    def test_capacity_bounds_memory_with_eviction_counters(self):
        cache = SolveCache(capacity=2)
        fps = ["1" * 64, "2" * 64, "3" * 64]
        for fp in fps:
            cache.put(make_result(fingerprint=fp))
        assert cache.memory_size == 2
        assert cache.stats.evictions == 1
        assert cache.get(fps[0]) is None  # the LRU head was evicted
        assert cache.get(fps[2]) is not None

    def test_get_refreshes_recency(self):
        cache = SolveCache(capacity=2)
        first, second, third = "1" * 64, "2" * 64, "3" * 64
        cache.put(make_result(fingerprint=first))
        cache.put(make_result(fingerprint=second))
        assert cache.get(first) is not None  # refresh: second is now LRU
        cache.put(make_result(fingerprint=third))
        assert cache.get(first) is not None
        assert cache.get(second) is None  # evicted instead of first

    def test_memory_eviction_keeps_disk_entries(self, tmp_path):
        cache = SolveCache(tmp_path, capacity=1)
        first, second = "1" * 64, "2" * 64
        cache.put(make_result(fingerprint=first))
        cache.put(make_result(fingerprint=second))  # evicts `first` from memory
        assert cache.memory_size == 1
        assert len(cache) == 2  # both persisted
        hit = cache.get(first)  # reloaded from disk and re-promoted
        assert hit is not None
        assert cache.stats.hits == 1
        assert cache.memory_size == 1  # promotion evicted `second` from memory

    def test_unbounded_when_capacity_none(self):
        cache = SolveCache(capacity=None)
        for index in range(2000):
            cache.put(make_result(fingerprint=format(index, "064x")))
        assert cache.memory_size == 2000
        assert cache.stats.evictions == 0

    def test_default_capacity_is_bounded(self):
        cache = SolveCache()
        assert cache.capacity is not None and cache.capacity > 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SolveCache(capacity=0)


class TestConfigGrid:
    def test_grid_crosses_all_axes(self):
        grid = config_grid(num_regions=(3, 5), utilizations=(0.4, 0.6), seeds=(0, 1, 2))
        assert len(grid) == 12
        assert grid[0].num_regions == 3 and grid[0].utilization == 0.4
        assert grid[-1].num_regions == 5 and grid[-1].seed == 2

    def test_common_kwargs_forwarded(self):
        grid = config_grid(num_regions=(4,), bus_width=8.0)
        assert grid[0].bus_width == 8.0
