"""On-disk cache entry schema versioning and upgrade-on-read."""

import json

from repro.service.cache import CACHE_SCHEMA_VERSION, SolveCache, migrate_entry
from repro.service.results import JobResult

FP = "a" * 64


def make_result(**overrides) -> JobResult:
    fields = dict(
        fingerprint=FP,
        job_name="migrate-me",
        status="optimal",
        feasible=True,
        objective=7.0,
        solve_time=0.5,
        wall_time=0.6,
        backend="test",
        mode="HO",
    )
    fields.update(overrides)
    return JobResult(**fields)


def write_v1_entry(directory, fingerprint=FP, drop_worker=True):
    """A PR 5 era entry: no schema_version marker (and no worker field)."""
    data = make_result(fingerprint=fingerprint).as_dict()
    data.pop("schema_version", None)
    if drop_worker:
        data.pop("worker", None)
    path = directory / f"{fingerprint}.json"
    path.write_text(json.dumps(data))
    return path


class TestMigrateEntry:
    def test_current_version_passes_through_unchanged(self):
        data = make_result().as_dict()
        data["schema_version"] = CACHE_SCHEMA_VERSION
        assert migrate_entry(data) is data  # no copy when nothing to do

    def test_v1_entry_is_upgraded(self):
        data = make_result().as_dict()
        data.pop("schema_version", None)
        data.pop("worker", None)
        upgraded = migrate_entry(data)
        assert upgraded is not data
        assert upgraded["schema_version"] == CACHE_SCHEMA_VERSION
        assert upgraded["worker"] == ""
        # the input dict was not mutated
        assert "schema_version" not in data and "worker" not in data

    def test_future_version_is_not_ours_to_touch(self):
        data = {"schema_version": CACHE_SCHEMA_VERSION + 1, "status": "optimal"}
        assert migrate_entry(data) is None

    def test_gap_in_the_chain_gives_up(self):
        # no build ever wrote version 0, so there is nothing to upgrade from
        assert migrate_entry({"schema_version": 0}) is None

    def test_non_integer_version_gives_up(self):
        assert migrate_entry({"schema_version": "new"}) is None
        assert migrate_entry({"schema_version": None}) is None


class TestUpgradeOnRead:
    def test_old_entry_is_a_hit_and_is_rewritten(self, tmp_path):
        path = write_v1_entry(tmp_path)
        cache = SolveCache(directory=tmp_path)
        result = cache.get(FP)
        assert result is not None and result.objective == 7.0
        assert cache.stats.hits == 1 and cache.stats.migrated == 1
        # the upgraded form was persisted: versioned, worker present
        stored = json.loads(path.read_text())
        assert stored["schema_version"] == CACHE_SCHEMA_VERSION
        assert "worker" in stored

    def test_migration_runs_once_per_entry_not_per_lookup(self, tmp_path):
        write_v1_entry(tmp_path)
        cache = SolveCache(directory=tmp_path)
        assert cache.get(FP) is not None
        cache.drop_memory()
        assert cache.get(FP) is not None  # re-read from disk
        assert cache.stats.migrated == 1

    def test_second_process_sees_the_upgraded_entry(self, tmp_path):
        write_v1_entry(tmp_path)
        assert SolveCache(directory=tmp_path).get(FP) is not None
        second = SolveCache(directory=tmp_path)
        assert second.get(FP) is not None
        assert second.stats.migrated == 0  # already current on disk

    def test_future_entry_is_a_miss_and_left_on_disk(self, tmp_path):
        data = make_result().as_dict()
        data["schema_version"] = CACHE_SCHEMA_VERSION + 7
        path = tmp_path / f"{FP}.json"
        path.write_text(json.dumps(data))
        cache = SolveCache(directory=tmp_path)
        assert cache.get(FP) is None
        assert cache.stats.corrupt == 1
        assert path.exists()  # a newer build's file must not be deleted

    def test_fresh_writes_are_stamped_with_current_version(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        cache.put(make_result())
        stored = json.loads((tmp_path / f"{FP}.json").read_text())
        assert stored["schema_version"] == CACHE_SCHEMA_VERSION

    def test_migrated_counter_is_exported(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        assert "migrated" in cache.stats.as_dict()
