"""Content-addressed solve-result cache (bounded in-memory LRU + JSON-on-disk).

Results are keyed by the :class:`~repro.service.jobs.SolveJob` fingerprint, so
any two jobs with identical content — regardless of where or when they were
built — share one cache entry.  The in-memory layer is a bounded LRU (the same
capacity/eviction-counter contract as
:class:`repro.runtime.manager.BitstreamCache`): repeated lookups are free
inside one process, and sustained traffic cannot grow the map without limit.
The optional directory layer persists every entry as ``<fingerprint>.json`` so
warm sweeps survive process restarts — and so memory-evicted entries are still
hits on their next lookup.

The directory layer is **multi-process safe** and is the shared cache tier of
the :mod:`repro.fleet` replica fleet:

* Disk writes are atomic (write to a temp file, then :func:`os.replace`) so a
  killed run never leaves a truncated entry behind, and concurrent writers of
  the same fingerprint last-write-win an identical payload.
* On-disk entries carry a schema version and a **migration registry** upgrades
  valid-but-older entries on read (persisting the upgraded form), so a schema
  bump costs one rewrite per entry instead of silently re-solving the world.
* Per-fingerprint ``<fingerprint>.lock`` files implement **cross-replica
  single-flight**: one process claims the solve for a hot miss
  (:meth:`SolveCache.try_acquire_flight`) while every other process awaits the
  entry (:meth:`SolveCache.await_flight`).  A lock whose holder died mid-solve
  goes stale and is reclaimed; corrupt lock files are deleted and counted.

Corrupt (non-JSON) entries found at load time are deleted and recorded, so one
bad file costs a re-solve instead of poisoning the request path forever;
entries that are valid JSON but fit neither this build's schema nor a
registered migration are recorded as misses and left on disk — they may belong
to a newer version sharing the directory.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import socket
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Union

from repro.service.results import JobResult

#: Default in-memory LRU bound; ``capacity=None`` restores the unbounded map.
DEFAULT_CAPACITY = 1024

#: Current on-disk entry schema.  Version 1 is the PR 5 format (a bare
#: ``JobResult.as_dict()`` with no version marker); version 2 stamps
#: ``schema_version`` and guarantees the ``worker`` field is present.
CACHE_SCHEMA_VERSION = 2

#: Seconds after which a flight lock is presumed abandoned even when its
#: holder pid cannot be probed (e.g. the holder ran on another host).
DEFAULT_STALE_LOCK_AFTER = 300.0

_MIGRATIONS: Dict[int, Callable[[Dict[str, object]], Dict[str, object]]] = {}


def cache_migration(from_version: int):
    """Register an on-disk entry migration step ``from_version -> +1``.

    The decorated function receives the (already shallow-copied) entry dict
    and must return the upgraded dict with ``schema_version`` bumped by one.
    Steps chain: a version-1 entry read by a version-4 build runs the 1->2,
    2->3 and 3->4 steps in order.
    """

    def register(fn: Callable[[Dict[str, object]], Dict[str, object]]):
        if from_version in _MIGRATIONS:
            raise ValueError(f"duplicate cache migration from version {from_version}")
        _MIGRATIONS[from_version] = fn
        return fn

    return register


def migrate_entry(data: Dict[str, object]) -> Optional[Dict[str, object]]:
    """Upgrade a loaded entry dict to :data:`CACHE_SCHEMA_VERSION`.

    Returns the upgraded dict (the input is not mutated), or ``None`` when the
    entry cannot be brought to the current version — an unknown future version
    (a newer build shares the directory) or a gap in the migration chain.
    """
    try:
        version = int(data.get("schema_version", 1))
    except (TypeError, ValueError):
        return None
    if version > CACHE_SCHEMA_VERSION:
        return None  # written by a newer build; not ours to touch
    while version < CACHE_SCHEMA_VERSION:
        step = _MIGRATIONS.get(version)
        if step is None:
            return None
        data = step(dict(data))
        new_version = int(data.get("schema_version", version))
        if new_version <= version:
            raise RuntimeError(
                f"cache migration from version {version} did not advance the "
                f"schema_version (got {new_version})"
            )
        version = new_version
    return data


@cache_migration(1)
def _migrate_v1(data: Dict[str, object]) -> Dict[str, object]:
    """PR 5 entries: no version marker, ``worker`` missing on early records."""
    data.setdefault("worker", "")
    data["schema_version"] = 2
    return data


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but isn't ours (or unprobeable): assume alive
    return True


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction/flight counters of one :class:`SolveCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    migrated: int = 0  # older-schema entries upgraded on read
    flights: int = 0  # single-flight leases this process acquired
    stale_locks: int = 0  # abandoned locks reclaimed (holder died mid-solve)
    corrupt_locks: int = 0  # undecodable lock files deleted
    broken_locks: int = 0  # live-holder locks force-broken after an await bound
    lock_errors: int = 0  # lock dir unusable (full/unwritable): solved locally
    store_errors: int = 0  # disk writes that failed (entry kept in memory only)

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "migrated": self.migrated,
            "flights": self.flights,
            "stale_locks": self.stale_locks,
            "corrupt_locks": self.corrupt_locks,
            "broken_locks": self.broken_locks,
            "lock_errors": self.lock_errors,
            "store_errors": self.store_errors,
            "hit_rate": self.hit_rate,
        }


class SolveCache:
    """Content-addressed store of :class:`~repro.service.results.JobResult`.

    Parameters
    ----------
    directory:
        Optional directory for the JSON persistence layer; created on demand.
        ``None`` keeps the cache purely in-memory.
    capacity:
        Bound on the in-memory LRU layer (:data:`DEFAULT_CAPACITY` entries by
        default); the least-recently-used entry is evicted past the bound and
        counted in ``stats.evictions``.  Disk entries are never evicted — an
        evicted fingerprint is reloaded (and re-promoted) on its next lookup
        when a directory is configured.  ``None`` disables the bound.
    stale_lock_after:
        Seconds before a single-flight lock with an unprobeable holder is
        presumed abandoned.  Locks whose holder pid is probeable and dead are
        reclaimed immediately regardless of age.

    The cache is safe to share across the gateway event loop and worker-shard
    threads (every memory-layer mutation happens under one lock), and the
    directory layer is safe to share across processes.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        capacity: Optional[int] = DEFAULT_CAPACITY,
        stale_lock_after: float = DEFAULT_STALE_LOCK_AFTER,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("cache capacity must be positive (or None for unbounded)")
        if stale_lock_after <= 0:
            raise ValueError("stale_lock_after must be positive")
        self.directory = Path(directory) if directory is not None else None
        self.capacity = capacity
        self.stale_lock_after = stale_lock_after
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, JobResult]" = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[JobResult]:
        """Look a result up, trying memory first, then disk (LRU-refreshed).

        Counts exactly one hit or one miss.  The gateway runs the two halves
        itself: :meth:`get_memory` on its event loop, then :meth:`get_disk`
        off the loop only when memory missed and a directory is set.
        """
        result = self.get_memory(fingerprint)
        if result is None and self.directory is not None:
            result = self.get_disk(fingerprint)
        return result

    def get_memory(self, fingerprint: str) -> Optional[JobResult]:
        """The in-memory half of :meth:`get`: no file IO, cheap enough for an
        event loop.

        A hit is counted here.  A miss is counted here only without a
        directory, where it ends the lookup; with one, :meth:`get_disk`
        finishes the lookup and counts it.
        """
        with self._lock:
            result = self._from_memory(fingerprint)
            if result is not None:
                self.stats.hits += 1
            elif self.directory is None:
                self.stats.misses += 1
        return result

    def get_disk(self, fingerprint: str) -> Optional[JobResult]:
        """The disk half of :meth:`get`, after :meth:`get_memory` missed.

        Re-checks memory (a store may have landed since), then loads the
        entry from disk and promotes it into memory; counts one hit or miss.
        """
        result = self.probe(fingerprint)
        with self._lock:
            if result is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return result

    def probe(self, fingerprint: str) -> Optional[JobResult]:
        """Like :meth:`get` but without touching the hit/miss counters.

        Single-flight waiters poll this; counting every poll as a miss would
        swamp the hit-rate statistics with retries of one lookup.
        """
        with self._lock:
            result = self._from_memory(fingerprint)
        if result is None and self.directory is not None:
            result = self._load(fingerprint)
            if result is not None:
                with self._lock:
                    self._memory[fingerprint] = result
                    self._memory.move_to_end(fingerprint)
                    self._evict_overflow()
        return result

    def put(self, result: JobResult) -> None:
        """Store a result under its fingerprint (memory + disk)."""
        with self._lock:
            self.stats.stores += 1
            self._memory[result.fingerprint] = result
            self._memory.move_to_end(result.fingerprint)
            self._evict_overflow()
        if self.directory is not None:
            self._dump(result)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._memory:
                return True
        return self.directory is not None and self._path(fingerprint).exists()

    def __len__(self) -> int:
        with self._lock:
            memory = set(self._memory)
        return len(memory | set(self._disk_fingerprints()))

    @property
    def memory_size(self) -> int:
        """Entries currently held by the in-memory LRU layer."""
        with self._lock:
            return len(self._memory)

    def fingerprints(self) -> Iterator[str]:
        """Every cached fingerprint (memory and disk, deduplicated)."""
        with self._lock:
            memory = set(self._memory)
        yield from sorted(memory | set(self._disk_fingerprints()))

    def clear(self, disk: bool = True) -> None:
        """Drop all entries (and, optionally, the persisted files + locks)."""
        with self._lock:
            self._memory.clear()
        if disk and self.directory is not None and self.directory.exists():
            for path in list(self.directory.glob("*.json")) + list(
                self.directory.glob("*.lock")
            ):
                try:
                    path.unlink()
                except OSError:
                    pass  # a concurrent clear/release got there first

    def drop_memory(self) -> None:
        """Forget the in-memory layer only (used to test disk round-trips)."""
        with self._lock:
            self._memory.clear()

    # ------------------------------------------------------------------
    # cross-replica single-flight
    # ------------------------------------------------------------------
    def try_acquire_flight(self, fingerprint: str) -> bool:
        """Try to become the fleet-wide solver for ``fingerprint``.

        Returns ``True`` when this process now holds the per-fingerprint lock
        file (it must :meth:`release_flight` when the solve finishes, success
        or not), ``False`` when another live process already holds it.  Stale
        locks — holder pid dead, or older than ``stale_lock_after`` — are
        reclaimed transparently.  Directory-less caches trivially grant every
        claim: in-process dedup is the micro-batcher's job, this lock only
        exists to coordinate *across* processes sharing a directory.
        """
        if self.directory is None:
            return True
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            # the cache dir itself is unusable (full disk, path hijacked by a
            # chaos action): nobody can coordinate through it, so claim the
            # solve locally — liveness beats deduplication
            with self._lock:
                self.stats.lock_errors += 1
            return True
        lock_path = self._lock_path(fingerprint)
        payload = json.dumps(
            {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "acquired_at": time.time(),
            }
        )
        for _attempt in range(8):  # bounded: stale reclaim may race other claimants
            try:
                _publish_lock(lock_path, payload)
            except FileExistsError:
                if not self._reclaim_if_stale(lock_path):
                    return False
                continue  # reclaimed (or holder vanished): race for it again
            except OSError:
                # can't create the lock file (full/unwritable lock dir): no
                # process can win this lock either, so solve locally and count
                # the degraded coordination instead of failing the request
                with self._lock:
                    self.stats.lock_errors += 1
                return True
            with self._lock:
                self.stats.flights += 1
            return True
        return False

    def break_flight(self, fingerprint: str) -> None:
        """Forcibly delete the flight lock even if its holder looks alive.

        The escape hatch behind :meth:`await_flight`'s wall-clock bound: a
        holder that is alive-but-wedged (e.g. SIGSTOPped mid-solve) passes the
        ``_pid_alive`` probe forever, so stale reclaim never fires.  A waiter
        whose wait bound expired breaks the lock, claims the flight itself,
        and solves — if the wedged holder later wakes up and releases, it
        unlinks a lock it no longer owns, which is harmless (the release path
        never validates ownership).
        """
        if self.directory is None:
            return
        try:
            self._lock_path(fingerprint).unlink()
        except OSError:
            return  # already gone: nothing was broken
        with self._lock:
            self.stats.broken_locks += 1

    def release_flight(self, fingerprint: str) -> None:
        """Drop this process's flight lock (idempotent, never raises)."""
        if self.directory is None:
            return
        try:
            self._lock_path(fingerprint).unlink()
        except OSError:
            pass

    def flight_in_progress(self, fingerprint: str) -> bool:
        """Is another process currently solving ``fingerprint``?

        Reclaims stale/corrupt locks as a side effect, so a waiter polling
        this sees ``False`` (and can claim the solve) the moment the holder is
        known dead.
        """
        if self.directory is None:
            return False
        lock_path = self._lock_path(fingerprint)
        if not lock_path.exists():
            return False
        return not self._reclaim_if_stale(lock_path)

    async def await_flight(
        self,
        fingerprint: str,
        timeout: float = 60.0,
        poll_interval: float = 0.02,
    ) -> Optional[JobResult]:
        """Wait for another process's in-flight solve to land, and return it.

        Returns ``None`` when the lock disappears or goes stale without a
        result (the holder failed — the caller should claim the flight and
        solve), or when ``timeout`` expires (the caller should solve anyway:
        liveness beats deduplication).  Every disk probe runs off the event
        loop, so waiting parks no thread: any number of waiters can share one
        loop.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            result = await loop.run_in_executor(None, self.probe, fingerprint)
            if result is not None:
                return result
            if not await loop.run_in_executor(
                None, self.flight_in_progress, fingerprint
            ):
                # released (or reclaimed) — one last probe catches the
                # store-then-release window before giving up on the holder
                return await loop.run_in_executor(None, self.probe, fingerprint)
            if loop.time() >= deadline:
                return None
            await asyncio.sleep(poll_interval)

    def _lock_path(self, fingerprint: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{fingerprint}.lock"

    def _reclaim_if_stale(self, lock_path: Path) -> bool:
        """Delete a stale or corrupt lock.  ``True`` when the path is now free
        (deleted here, or already gone), ``False`` while its holder looks
        alive."""
        try:
            raw = lock_path.read_text(encoding="utf-8")
        except OSError:
            return True  # vanished: holder released between exists() and here
        try:
            info = json.loads(raw)
            pid = int(info["pid"])
            acquired_at = float(info["acquired_at"])
            host = info.get("host")
        except (ValueError, TypeError, KeyError, json.JSONDecodeError):
            # a partially-written or garbage lock can never be released by a
            # holder we can identify: delete it and count the cleanup
            with self._lock:
                self.stats.corrupt_locks += 1
            self._unlink_quiet(lock_path)
            return True
        stale = time.time() - acquired_at > self.stale_lock_after
        if not stale and host == socket.gethostname():
            stale = not _pid_alive(pid)
        if stale:
            with self._lock:
                self.stats.stale_locks += 1
            self._unlink_quiet(lock_path)
            return True
        return False

    @staticmethod
    def _unlink_quiet(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass  # a concurrent reclaimer won the race

    # ------------------------------------------------------------------
    def _from_memory(self, fingerprint: str) -> Optional[JobResult]:
        """The memory entry, LRU-refreshed (caller holds the lock)."""
        result = self._memory.get(fingerprint)
        if result is not None:
            self._memory.move_to_end(fingerprint)
        return result

    def _evict_overflow(self) -> None:
        """Pop LRU-tail entries past capacity (caller holds the lock)."""
        if self.capacity is None:
            return
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, fingerprint: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{fingerprint}.json"

    def _disk_fingerprints(self) -> Iterator[str]:
        if self.directory is None or not self.directory.exists():
            return
        for path in self.directory.glob("*.json"):
            yield path.stem

    def _load(self, fingerprint: str) -> Optional[JobResult]:
        path = self._path(fingerprint)
        try:
            stamp = path.stat().st_mtime_ns
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError:
            return None  # unreadable (or plain missing) -> miss, re-solve
        except json.JSONDecodeError:
            # truncated or corrupt file (e.g. an interrupted write): delete it
            # so the entry is re-solved exactly once instead of failing every
            # lookup until someone cleans the directory by hand
            with self._lock:
                self.stats.corrupt += 1
            try:
                # guard against a concurrent writer having atomically replaced
                # the bad file with a fresh valid entry since we read it
                if path.stat().st_mtime_ns == stamp:
                    path.unlink()
            except OSError:
                pass
            return None
        upgraded = migrate_entry(data) if isinstance(data, dict) else None
        if upgraded is None:
            # valid JSON that fits neither this build's schema nor a migration
            # step: a *newer* process sharing the directory may have written
            # it, so leave the file alone and just miss
            with self._lock:
                self.stats.corrupt += 1
            return None
        try:
            result = JobResult.from_dict(upgraded)
        except (TypeError, ValueError, KeyError):
            with self._lock:
                self.stats.corrupt += 1
            return None
        if upgraded is not data:
            # an older entry was upgraded on read: persist the new form so the
            # migration runs once per entry, not once per lookup
            with self._lock:
                self.stats.migrated += 1
            self._dump(result)
        result.cached = False  # the flag describes this run, not the stored one
        return result

    def _dump(self, result: JobResult) -> None:
        assert self.directory is not None
        data = result.as_dict()
        data["cached"] = False
        data["schema_version"] = CACHE_SCHEMA_VERSION
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=f".{result.fingerprint[:12]}.", suffix=".tmp"
            )
        except OSError:
            # full disk / hijacked cache path: the entry stays memory-only and
            # the failure is a counter, never an unhandled exception on the
            # request path
            with self._lock:
                self.stats.store_errors += 1
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=1)
            os.replace(tmp_name, self._path(result.fingerprint))
        except OSError:
            with self._lock:
                self.stats.store_errors += 1
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def _publish_lock(lock_path: Path, payload: str) -> None:
    """Create ``lock_path`` holding ``payload``, atomically.

    The payload goes to a private temporary file that is then hard-linked
    into place (``FileExistsError`` when the lock exists).  A lock created
    empty and written afterwards could be read half-written by a concurrent
    claimant, which would reclaim it as corrupt and solve beside the holder.
    """
    temporary = lock_path.with_name(
        f"{lock_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    temporary.write_text(payload, encoding="utf-8")
    try:
        os.link(temporary, lock_path)
    finally:
        temporary.unlink(missing_ok=True)
