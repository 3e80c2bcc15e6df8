"""Cross-process single-flight on the shared cache directory.

The multi-process tests spawn real child processes (``multiprocessing``) so
the per-fingerprint lock files are exercised across actual process
boundaries — concurrent identical misses elect exactly one solver, a killed
holder's stale lock is reclaimed, and corrupt locks are swept.  Waits drive
:meth:`SolveCache.await_flight`, the coroutine the gateway awaits, under
``asyncio.run``.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service.cache import SolveCache
from repro.service.results import JobResult

FP = "b" * 64


def make_result(fingerprint=FP) -> JobResult:
    return JobResult(
        fingerprint=fingerprint,
        job_name="flight",
        status="optimal",
        feasible=True,
        objective=1.0,
        solve_time=0.01,
        wall_time=0.01,
        backend="test",
        mode="HO",
    )


def dead_pid() -> int:
    """A pid guaranteed to be dead (a child we already reaped)."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestFlightLockBasics:
    def test_simultaneous_claims_elect_exactly_one_holder(self, tmp_path):
        """A claimant must never see a half-written lock: it would reclaim
        it as corrupt and solve beside the holder."""
        caches = [SolveCache(directory=tmp_path) for _ in range(4)]
        for round_index in range(150):
            fingerprint = f"{round_index:064x}"
            barrier = threading.Barrier(len(caches))
            won = []

            def claim(cache):
                barrier.wait(timeout=10)
                if cache.try_acquire_flight(fingerprint):
                    won.append(cache)

            threads = [threading.Thread(target=claim, args=(c,)) for c in caches]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(won) == 1, f"round {round_index}: {len(won)} holders"
        assert sum(cache.stats.corrupt_locks for cache in caches) == 0

    def test_acquire_is_exclusive_until_released(self, tmp_path):
        first = SolveCache(directory=tmp_path)
        second = SolveCache(directory=tmp_path)
        assert first.try_acquire_flight(FP)
        assert not second.try_acquire_flight(FP)
        assert second.flight_in_progress(FP)
        first.release_flight(FP)
        assert not second.flight_in_progress(FP)
        assert second.try_acquire_flight(FP)
        second.release_flight(FP)
        assert first.stats.flights == 1 and second.stats.flights == 1

    def test_release_is_idempotent(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        cache.release_flight(FP)  # nothing held: must not raise
        assert cache.try_acquire_flight(FP)
        cache.release_flight(FP)
        cache.release_flight(FP)

    def test_memory_only_cache_grants_every_claim(self):
        cache = SolveCache()
        assert cache.try_acquire_flight(FP)
        assert cache.try_acquire_flight(FP)  # no lock file, no exclusivity
        assert not cache.flight_in_progress(FP)
        cache.release_flight(FP)
        assert cache.stats.flights == 0  # flights count *file* leases only

    def test_lock_file_carries_holder_identity(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        assert cache.try_acquire_flight(FP)
        info = json.loads((tmp_path / f"{FP}.lock").read_text())
        assert info["pid"] == os.getpid()
        assert info["host"] == socket.gethostname()
        assert info["acquired_at"] <= time.time()
        cache.release_flight(FP)

    def test_clear_sweeps_lock_files(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        assert cache.try_acquire_flight(FP)
        cache.clear()
        assert not (tmp_path / f"{FP}.lock").exists()


class TestAwaitFlight:
    def test_waiter_gets_the_result_the_holder_stores(self, tmp_path):
        holder = SolveCache(directory=tmp_path)
        waiter = SolveCache(directory=tmp_path)
        assert holder.try_acquire_flight(FP)

        def solve_and_release():
            time.sleep(0.1)
            holder.put(make_result())
            holder.release_flight(FP)

        thread = threading.Thread(target=solve_and_release)
        thread.start()
        try:
            result = asyncio.run(waiter.await_flight(FP, timeout=5.0, poll_interval=0.01))
        finally:
            thread.join()
        assert result is not None and result.fingerprint == FP

    def test_holder_releasing_without_a_result_unblocks_the_waiter(self, tmp_path):
        holder = SolveCache(directory=tmp_path)
        waiter = SolveCache(directory=tmp_path)
        assert holder.try_acquire_flight(FP)
        threading.Timer(0.05, holder.release_flight, args=(FP,)).start()
        result = asyncio.run(waiter.await_flight(FP, timeout=5.0, poll_interval=0.01))
        assert result is None  # the holder failed: caller should solve

    def test_timeout_expires_while_holder_is_alive(self, tmp_path):
        holder = SolveCache(directory=tmp_path)
        waiter = SolveCache(directory=tmp_path)
        assert holder.try_acquire_flight(FP)
        try:
            started = time.monotonic()
            result = asyncio.run(waiter.await_flight(FP, timeout=0.15, poll_interval=0.01))
            assert result is None
            assert time.monotonic() - started < 5.0
        finally:
            holder.release_flight(FP)


class TestStaleLockRecovery:
    def test_dead_holder_lock_is_reclaimed(self, tmp_path):
        lock = tmp_path / f"{FP}.lock"
        lock.write_text(json.dumps({
            "pid": dead_pid(),
            "host": socket.gethostname(),
            "acquired_at": time.time(),
        }))
        cache = SolveCache(directory=tmp_path)
        assert not cache.flight_in_progress(FP)
        assert cache.stats.stale_locks == 1
        assert not lock.exists()
        assert cache.try_acquire_flight(FP)  # the job can be re-solved
        cache.release_flight(FP)

    def test_remote_host_lock_goes_stale_by_age_only(self, tmp_path):
        lock = tmp_path / f"{FP}.lock"
        payload = {
            "pid": os.getpid(),  # alive — but the host differs, so not probed
            "host": "some-other-host",
            "acquired_at": time.time(),
        }
        lock.write_text(json.dumps(payload))
        fresh = SolveCache(directory=tmp_path, stale_lock_after=60.0)
        assert fresh.flight_in_progress(FP)  # young remote lock: respected

        payload["acquired_at"] = time.time() - 120.0
        lock.write_text(json.dumps(payload))
        assert not fresh.flight_in_progress(FP)  # aged out
        assert fresh.stats.stale_locks == 1

    def test_corrupt_lock_is_deleted_and_counted(self, tmp_path):
        lock = tmp_path / f"{FP}.lock"
        lock.write_text("{truncated")
        cache = SolveCache(directory=tmp_path)
        assert not cache.flight_in_progress(FP)
        assert cache.stats.corrupt_locks == 1
        assert not lock.exists()

    def test_lock_missing_required_fields_is_corrupt(self, tmp_path):
        lock = tmp_path / f"{FP}.lock"
        lock.write_text(json.dumps({"note": "no pid here"}))
        cache = SolveCache(directory=tmp_path)
        assert cache.try_acquire_flight(FP)  # reclaimed, then re-acquired
        assert cache.stats.corrupt_locks == 1
        cache.release_flight(FP)


# ----------------------------------------------------------------------
# real multi-process races
# ----------------------------------------------------------------------
def _race_worker(directory, fingerprint, queue):
    """One contender: claim the flight or await the winner's result."""
    cache = SolveCache(directory=directory)
    if cache.try_acquire_flight(fingerprint):
        time.sleep(0.2)  # a solve long enough that every peer sees the lock
        cache.put(make_result(fingerprint))
        cache.release_flight(fingerprint)
        queue.put(("solved", True))
    else:
        result = asyncio.run(cache.await_flight(fingerprint, timeout=30.0, poll_interval=0.01))
        queue.put(("awaited", result is not None))


def _crash_worker(directory, fingerprint, ready):
    """Acquire the flight lock, signal, then die without releasing."""
    cache = SolveCache(directory=directory)
    assert cache.try_acquire_flight(fingerprint)
    ready.set()
    time.sleep(60.0)  # killed long before this returns


class TestCrossProcessSingleFlight:
    def test_concurrent_identical_misses_elect_exactly_one_solver(self, tmp_path):
        queue = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=_race_worker, args=(str(tmp_path), FP, queue)
            )
            for _ in range(3)
        ]
        for worker in workers:
            worker.start()
        outcomes = [queue.get(timeout=60.0) for _ in workers]
        for worker in workers:
            worker.join(timeout=30.0)
        roles = sorted(role for role, _ok in outcomes)
        assert roles == ["awaited", "awaited", "solved"]
        assert all(ok for _role, ok in outcomes)  # every awaiter got the result
        # exactly one store happened fleet-wide
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        assert not list(tmp_path.glob("*.lock"))

    def test_killed_holder_is_reclaimed_and_job_resolved(self, tmp_path):
        ready = multiprocessing.Event()
        holder = multiprocessing.Process(
            target=_crash_worker, args=(str(tmp_path), FP, ready)
        )
        holder.start()
        assert ready.wait(timeout=30.0)
        holder.kill()
        holder.join(timeout=30.0)

        cache = SolveCache(directory=tmp_path)
        deadline = time.monotonic() + 10.0
        acquired = False
        while time.monotonic() < deadline and not acquired:
            acquired = cache.try_acquire_flight(FP)  # reclaims the stale lock
            if not acquired:
                time.sleep(0.02)
        assert acquired, "stale lock of the killed holder was never reclaimed"
        assert cache.stats.stale_locks >= 1
        cache.put(make_result())  # the job is re-solved by the survivor
        cache.release_flight(FP)
        assert cache.probe(FP) is not None


class TestLockEdgeCases:
    """The failure shapes the chaos harness injects, pinned down in isolation."""

    def test_corrupt_lock_bytes_mid_flight_unblock_the_waiter(self, tmp_path):
        # the lock file is overwritten with garbage while a waiter polls: the
        # waiter must reclaim-and-return promptly, not sit out its full bound
        holder = SolveCache(directory=tmp_path)
        waiter = SolveCache(directory=tmp_path)
        assert holder.try_acquire_flight(FP)
        lock = tmp_path / f"{FP}.lock"
        threading.Timer(0.05, lock.write_text, args=('{"chaos": truncated',)).start()
        started = time.monotonic()
        result = asyncio.run(waiter.await_flight(FP, timeout=30.0, poll_interval=0.01))
        assert result is None  # no result landed: the waiter should solve
        assert time.monotonic() - started < 5.0  # nowhere near the 30 s bound
        assert waiter.stats.corrupt_locks == 1
        assert not lock.exists()
        assert waiter.try_acquire_flight(FP)  # the job is solvable again
        waiter.release_flight(FP)

    def test_sigstopped_holder_hits_await_bound_then_break_flight(self, tmp_path):
        # alive-but-wedged: a SIGSTOPped holder passes the pid probe forever,
        # so only the wall-clock bound ends the wait — then break_flight is
        # the takeover path
        ready = multiprocessing.Event()
        holder = multiprocessing.Process(
            target=_crash_worker, args=(str(tmp_path), FP, ready)
        )
        holder.start()
        try:
            assert ready.wait(timeout=30.0)
            os.kill(holder.pid, signal.SIGSTOP)

            waiter = SolveCache(directory=tmp_path)
            result = asyncio.run(waiter.await_flight(FP, timeout=0.3, poll_interval=0.02))
            assert result is None  # the bound expired, not stale reclaim
            assert waiter.stats.stale_locks == 0  # the holder never looked dead

            waiter.break_flight(FP)
            assert waiter.stats.broken_locks == 1
            assert not (tmp_path / f"{FP}.lock").exists()
            assert waiter.try_acquire_flight(FP)  # takeover-and-solve
            waiter.put(make_result())
            waiter.release_flight(FP)
            assert waiter.probe(FP) is not None
        finally:
            try:
                os.kill(holder.pid, signal.SIGCONT)
            except (OSError, TypeError):
                pass
            holder.kill()
            holder.join(timeout=30.0)

    def test_break_flight_on_a_missing_lock_counts_nothing(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        cache.break_flight(FP)  # nothing held: must not raise or count
        assert cache.stats.broken_locks == 0

    def test_hijacked_cache_dir_counts_errors_instead_of_raising(self, tmp_path):
        # the chaos FillCacheDir shape: the cache directory path is suddenly a
        # plain file, so every mkdir/open underneath it raises OSError.  The
        # cache must keep answering (memory tier + local solve) and count the
        # degraded coordination.
        target = tmp_path / "cache"
        cache = SolveCache(directory=target)
        target.write_bytes(b"chaos: cache tier unavailable\n")

        assert cache.try_acquire_flight(FP)  # liveness beats deduplication
        assert cache.stats.lock_errors == 1
        cache.put(make_result())
        assert cache.stats.store_errors == 1
        assert cache.get(FP) is not None  # the memory tier still answers
        cache.release_flight(FP)  # must not raise

        # the tier comes back: coordination resumes on the next claim
        target.unlink()
        assert cache.try_acquire_flight(FP)
        assert (target / f"{FP}.lock").exists()
        cache.release_flight(FP)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-v"]))
