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

The directory layer is **multi-process safe** and is the shared result store
of the :mod:`repro.fleet` replica fleet.  It does no deduplication: the
router's ring sends a fingerprint to one replica, whose batcher joins repeats
onto the running solve.

* Disk writes are atomic (write to a temp file, then :func:`os.replace`) so a
  killed run never leaves a truncated entry behind, and concurrent writers of
  the same fingerprint last-write-win an identical payload.
* On-disk entries carry a schema version and a **migration registry** upgrades
  valid-but-older entries on read (persisting the upgraded form), so a schema
  bump costs one rewrite per entry instead of silently re-solving the world.

Corrupt (non-JSON) entries found at load time are deleted and recorded, so one
bad file costs a re-solve instead of poisoning the request path forever;
entries that are valid JSON but fit neither this build's schema nor a
registered migration are recorded as misses and left on disk — they may belong
to a newer version sharing the directory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import threading
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


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`SolveCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    migrated: int = 0  # older-schema entries upgraded on read
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

    The cache is safe to share across the gateway event loop and worker-shard
    threads (every memory-layer mutation happens under one lock), and the
    directory layer is safe to share across processes.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        capacity: Optional[int] = DEFAULT_CAPACITY,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("cache capacity must be positive (or None for unbounded)")
        self.directory = Path(directory) if directory is not None else None
        self.capacity = capacity
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
        with self._lock:
            result = self._from_memory(fingerprint)
        if result is None and self.directory is not None:
            result = self._load(fingerprint)
        with self._lock:
            if result is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
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
        """Drop all entries (and, optionally, the persisted files)."""
        with self._lock:
            self._memory.clear()
        if disk and self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass  # a concurrent clear got there first

    def drop_memory(self) -> None:
        """Forget the in-memory layer only (used to test disk round-trips)."""
        with self._lock:
            self._memory.clear()

    # Kept as a no-op: perfbench/layers.py times it (cache.flight_us); ROADMAP item 6 deletes it.
    def try_acquire_flight(self, fingerprint: str) -> bool:
        """Always ``True``; writes no file."""
        return True

    # Kept as a no-op: perfbench/layers.py times it (cache.flight_us); ROADMAP item 6 deletes it.
    def release_flight(self, fingerprint: str) -> None:
        """Does nothing."""

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

