"""Trace storage: bounded in-memory ring buffer plus optional JSONL sink.

The recorder is the process-local home of completed traces.  It is sized for
operations, not archival: the ring keeps the most recent N trace documents for
``GET /debug/traces`` and the dashboard, while the optional JSONL sink appends
every completed trace to disk (with size-based rotation) for capture→replay
via ``python -m repro.obs export``.

Everything here is thread-safe: the gateway records from asyncio callbacks on
the event loop thread, tests record from arbitrary threads, and /debug reads
can race a record.
"""

from __future__ import annotations

import collections
import json
import os
import threading
from typing import Dict, List, Mapping, Optional

from repro.obs.trace import Trace

__all__ = ["JsonlSink", "TraceRecorder"]


class JsonlSink:
    """Append-only JSONL trace log with size-based rotation.

    When the live file exceeds ``max_bytes`` it is renamed to ``<path>.1``
    (shifting ``.1`` → ``.2`` … up to ``backups``, dropping the oldest) and a
    fresh file is started — the classic logrotate scheme, so a long soak
    cannot fill the disk.
    """

    def __init__(self, path: str, max_bytes: int = 16 * 1024 * 1024, backups: int = 2) -> None:
        if max_bytes < 1024:
            raise ValueError(f"max_bytes must be >= 1024, got {max_bytes}")
        self.path = str(path)
        self.max_bytes = int(max_bytes)
        self.backups = max(0, int(backups))
        self._lock = threading.Lock()
        self.written = 0
        self.rotations = 0
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)

    def write(self, doc: Mapping[str, object]) -> None:
        line = json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
        with self._lock:
            self._maybe_rotate(len(line))
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
            self.written += 1

    def _maybe_rotate(self, incoming: int) -> None:
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size + incoming <= self.max_bytes:
            return
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.backups - 1, 0, -1):
                src = f"{self.path}.{index}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{index + 1}")
            os.replace(self.path, f"{self.path}.1")
        self.rotations += 1

    def stats(self) -> Dict[str, object]:
        with self._lock:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            return {
                "path": self.path,
                "bytes": size,
                "max_bytes": self.max_bytes,
                "written": self.written,
                "rotations": self.rotations,
            }


class TraceRecorder:
    """Bounded FIFO of completed traces with by-id lookup, plus an optional
    JSONL sink.

    Evicts the oldest trace once ``capacity`` is exceeded; eviction count is
    surfaced in stats so operators can tell "trace not found" from "trace
    aged out".

    ``record`` seals a still-open :class:`~repro.obs.trace.Trace` and stores
    the object itself; it is serialized to a document only when read.
    ``record`` sits on the request hot path (every traced request lands here
    before its response is written), while ``/debug/traces`` reads are rare,
    so the dict-building cost belongs on the read side.  The sink, when
    configured, writes every recorded trace's document.
    """

    def __init__(self, capacity: int = 256, sink_path: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._order: collections.deque = collections.deque()
        self._by_id: Dict[str, Trace] = {}
        self._lock = threading.Lock()
        self.recorded = 0
        self.evicted = 0
        self.sink = JsonlSink(sink_path) if sink_path else None

    def record(self, trace: Trace) -> None:
        trace.finish(trace.status if trace.status != "open" else "ok")
        trace_id = trace.trace_id
        with self._lock:
            self.recorded += 1
            if trace_id in self._by_id:
                # Same id recorded twice (e.g. a retry): keep the newest,
                # leaving its position in the eviction order untouched.
                self._by_id[trace_id] = trace
            else:
                self._order.append(trace_id)
                self._by_id[trace_id] = trace
                while len(self._order) > self.capacity:
                    self._by_id.pop(self._order.popleft(), None)
                    self.evicted += 1
        if self.sink is not None:
            self.sink.write(trace.as_dict())

    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            trace = self._by_id.get(trace_id)
        return trace.as_dict() if trace is not None else None

    def list(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Most-recent-first trace documents (bounded by ``limit``)."""
        with self._lock:
            traces = [self._by_id[trace_id] for trace_id in reversed(self._order)]
        return [trace.as_dict() for trace in traces[:limit]]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            stats: Dict[str, object] = {
                "capacity": self.capacity,
                "size": len(self._order),
                "recorded": self.recorded,
                "evicted": self.evicted,
            }
        if self.sink is not None:
            stats["sink"] = self.sink.stats()
        return stats
