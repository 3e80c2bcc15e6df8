"""The cache directory as the fleet's shared result store.

Replicas share one directory and do no locking there: the router's ring keeps
a fingerprint on one replica, and anything that still writes the same entry
twice (a client bypassing the router, a failover) must leave one whole, valid
entry behind.  These tests pin that: atomic writes, duplicate writers across
threads and processes, and files in the directory that are not entries.
"""

import json
import multiprocessing
import os
import threading
import types

import pytest

import repro.service.cache as cache_module
from repro.service.cache import SolveCache
from repro.service.results import JobResult

FP = "b" * 64


def make_result(fingerprint=FP, objective=1.0, job_name="shared") -> JobResult:
    return JobResult(
        fingerprint=fingerprint,
        job_name=job_name,
        status="optimal",
        feasible=True,
        objective=objective,
        solve_time=0.01,
        wall_time=0.01,
        backend="test",
        mode="HO",
        metrics={"wasted_frames": 2, "wirelength": 7.0},
    )


def temp_files(directory):
    return sorted(path.name for path in directory.iterdir() if path.suffix == ".tmp")


def store_repeatedly(directory, rounds):
    """Child-process body: store the same result ``rounds`` times."""
    cache = SolveCache(directory)
    for _ in range(rounds):
        cache.put(make_result())
    raise SystemExit(cache.stats.store_errors)


class TestAtomicWrites:
    def test_failed_replace_removes_the_temp_file_and_counts_a_store_error(
        self, tmp_path, monkeypatch
    ):
        def refuse(_src, _dst):
            raise OSError("replace refused")

        cache = SolveCache(tmp_path)
        monkeypatch.setattr(cache_module.os, "replace", refuse)
        cache.put(make_result())
        assert cache.stats.store_errors == 1
        assert list(tmp_path.iterdir()) == []
        assert cache.get(FP) is not None  # the memory tier still answers

    def test_interrupted_write_leaves_neither_entry_nor_temp_file(
        self, tmp_path, monkeypatch
    ):
        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        cache = SolveCache(tmp_path)
        monkeypatch.setattr(
            cache_module, "json", types.SimpleNamespace(dump=interrupted)
        )
        with pytest.raises(KeyboardInterrupt):
            cache.put(make_result())
        assert list(tmp_path.iterdir()) == []
        assert cache.stats.store_errors == 0  # not a disk fault: re-raised

    def test_second_store_replaces_the_entry_whole(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put(make_result(objective=1.0))
        cache.put(make_result(objective=2.0))
        assert [path.name for path in tmp_path.iterdir()] == [f"{FP}.json"]
        assert SolveCache(tmp_path).get(FP).objective == 2.0

    def test_reader_never_sees_a_partial_entry(self, tmp_path):
        writer = SolveCache(tmp_path)
        reader = SolveCache(tmp_path)
        versions = [make_result(objective=float(k), job_name="j" * 4000) for k in (1, 2)]
        writer.put(versions[0])
        done = threading.Event()

        def write():
            for step in range(200):
                writer.put(versions[step % 2])
            done.set()

        thread = threading.Thread(target=write)
        thread.start()
        seen = set()
        while not done.is_set():
            reader.drop_memory()
            hit = reader.get(FP)
            assert hit is not None
            seen.add(hit.objective)
        thread.join(timeout=10)
        assert reader.stats.corrupt == 0 and reader.stats.misses == 0
        assert seen <= {1.0, 2.0}
        assert writer.stats.store_errors == 0
        assert temp_files(tmp_path) == []


class TestDuplicateStores:
    def test_threads_storing_one_fingerprint_leave_one_valid_entry(self, tmp_path):
        caches = [SolveCache(tmp_path) for _ in range(4)]
        barrier = threading.Barrier(len(caches))

        def store(cache):
            barrier.wait(timeout=10)
            for _ in range(25):
                cache.put(make_result())

        threads = [threading.Thread(target=store, args=(c,)) for c in caches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(cache.stats.store_errors for cache in caches) == 0
        assert [path.name for path in tmp_path.iterdir()] == [f"{FP}.json"]
        assert SolveCache(tmp_path).get(FP) == make_result()

    def test_processes_storing_one_fingerprint_leave_one_valid_entry(self, tmp_path):
        children = [
            multiprocessing.Process(target=store_repeatedly, args=(tmp_path, 30))
            for _ in range(3)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=30)
        assert [child.exitcode for child in children] == [0, 0, 0]
        assert [path.name for path in tmp_path.iterdir()] == [f"{FP}.json"]
        fresh = SolveCache(tmp_path)
        assert fresh.get(FP) == make_result()
        assert fresh.stats.corrupt == 0

    def test_second_cache_on_the_directory_hits_what_the_first_stored(self, tmp_path):
        first, second = SolveCache(tmp_path), SolveCache(tmp_path)
        assert second.get(FP) is None
        first.put(make_result())
        hit = second.get(FP)
        assert hit == make_result() and hit.cached is False
        assert (second.stats.hits, second.stats.misses, second.stats.stores) == (1, 1, 0)


class TestForeignFiles:
    def test_lock_file_is_neither_an_entry_nor_removed(self, tmp_path):
        lock = tmp_path / f"{FP}.lock"
        lock.write_text(json.dumps({"pid": os.getpid()}))
        cache = SolveCache(tmp_path)
        assert FP not in cache
        assert len(cache) == 0 and list(cache.fingerprints()) == []
        assert cache.get(FP) is None and cache.stats.corrupt == 0
        cache.put(make_result())
        cache.clear()
        assert [path.name for path in tmp_path.iterdir()] == [lock.name]

    def test_leftover_temp_file_is_not_an_entry(self, tmp_path):
        # what a writer killed between mkstemp and os.replace leaves behind
        leftover = tmp_path / f".{FP[:12]}.abc123.tmp"
        leftover.write_text('{"half": ')
        cache = SolveCache(tmp_path)
        cache.put(make_result())
        assert list(cache.fingerprints()) == [FP]
        assert cache.get(FP) == make_result()
        assert cache.stats.corrupt == 0

    def test_clear_without_disk_keeps_the_entries(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put(make_result())
        cache.clear(disk=False)
        assert cache.memory_size == 0
        assert (tmp_path / f"{FP}.json").exists()
        assert cache.get(FP) == make_result()


class TestLoadEdgeCases:
    def test_unreadable_entry_is_a_plain_miss(self, tmp_path):
        (tmp_path / f"{FP}.json").mkdir()  # opening it raises IsADirectoryError
        cache = SolveCache(tmp_path)
        assert cache.get(FP) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        assert (tmp_path / f"{FP}.json").is_dir()

    def test_non_object_json_is_counted_corrupt_and_kept(self, tmp_path):
        entry = tmp_path / f"{FP}.json"
        entry.write_text("[1, 2, 3]")
        cache = SolveCache(tmp_path)
        assert cache.get(FP) is None
        assert cache.stats.corrupt == 1
        assert entry.read_text() == "[1, 2, 3]"

    def test_corrupt_entry_a_concurrent_writer_replaced_is_kept(
        self, tmp_path, monkeypatch
    ):
        entry = tmp_path / f"{FP}.json"
        entry.write_text("{not json")
        stamp = entry.stat().st_mtime_ns

        def load_then_lose_the_race(_handle):
            # another replica stores a fresh entry after our stat and read
            SolveCache(tmp_path).put(make_result())
            os.utime(entry, ns=(stamp + 10**9, stamp + 10**9))
            raise json.JSONDecodeError("Expecting property name", "{not json", 1)

        reader = SolveCache(tmp_path)
        monkeypatch.setattr(
            cache_module,
            "json",
            types.SimpleNamespace(
                load=load_then_lose_the_race,
                dump=json.dump,
                JSONDecodeError=json.JSONDecodeError,
            ),
        )
        assert reader.get(FP) is None
        assert reader.stats.corrupt == 1
        monkeypatch.undo()
        assert SolveCache(tmp_path).get(FP) == make_result()

    def test_contains_sees_a_disk_only_entry_without_counting_a_lookup(self, tmp_path):
        SolveCache(tmp_path).put(make_result())
        cache = SolveCache(tmp_path)
        assert FP in cache
        assert "c" * 64 not in cache
        assert cache.stats.lookups == 0 and cache.memory_size == 0

    def test_disk_half_answers_from_memory_when_a_store_landed_first(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put(make_result())
        (tmp_path / f"{FP}.json").unlink()
        assert cache.get_disk(FP) == make_result()
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)
