"""End-to-end request tracing: trace/span model, header propagation, stage hooks.

A **trace** follows one solve request through every serving layer.  The trace
id is minted at the first traced process the request hits (the fleet router,
or a gateway when hit directly) and propagated downstream in the
``X-Repro-Trace`` header as ``<trace_id>`` or ``<trace_id>:<parent_span_id>``,
so the router's forward span becomes the remote parent of the replica's
request handling.  Each process records **spans** — named, timed segments
(decode, admission, cache lookup, the wait for a solver thread recorded as
``batch.assembly``, the solve itself) — into its local
:class:`~repro.obs.recorder.TraceRecorder`;
``GET /debug/traces`` exposes them, and the shared trace id is what stitches
the per-process fragments back into one request story.

Span timestamps are wall-clock seconds derived from a per-trace
``(time.time(), perf_counter)`` anchor: durations have ``perf_counter``
precision while absolute times stay comparable across processes on one host.

**Solver stage hooks.**  The MILP and floorplan solvers run deep below the
gateway, on a solver thread where no trace object is reachable.  They report
coarse stage timings (``floorplan.ho_seed``, ``floorplan.build``,
``milp.lower``, ``milp.search``, ``floorplan.postsolve``) through a
thread-local sink: :func:`record_stage` is a no-op costing one attribute probe
unless :func:`collect_stages` installed a sink on the current thread — which
:func:`repro.floorplan.solver.run_job` does around every service-layer solve.
The collected stages travel inside the
:class:`~repro.service.results.JobResult` and are re-attached to the request
trace as child spans of its solve span by the gateway.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

__all__ = [
    "TRACE_HEADER",
    "TRACE_SCHEMA_VERSION",
    "new_id",
    "parse_trace_header",
    "format_trace_header",
    "Span",
    "Trace",
    "summarize_trace_doc",
    "record_stage",
    "stage_timer",
    "collect_stages",
]

#: The propagation header: ``<trace_id>`` or ``<trace_id>:<parent_span_id>``.
TRACE_HEADER = "X-Repro-Trace"

#: Version stamped into every exported trace document.
TRACE_SCHEMA_VERSION = 1

_MAX_ID_CHARS = 64


#: Pre-minted 8-byte hex ids.  Ids are minted several times per request on
#: the serving hot path, where a per-id ``os.urandom`` syscall is measurable;
#: drawing one entropy block per 256 ids keeps ids crypto-random at ~1/256th
#: of the cost.  ``list.pop`` is atomic under the GIL, and a refill race
#: between threads merely stocks the pool twice.
_ID_POOL: List[str] = []
_ID_BATCH = 256


def new_id() -> str:
    """A fresh random 8-byte hex id (crypto-random so ids never collide by seed)."""
    try:
        return _ID_POOL.pop()
    except IndexError:
        blob = os.urandom(8 * _ID_BATCH).hex()
        _ID_POOL.extend(blob[i:i + 16] for i in range(16, 16 * _ID_BATCH, 16))
        return blob[:16]


def _valid_id(value: str) -> bool:
    if not value or len(value) > _MAX_ID_CHARS:
        return False
    return all(c in "0123456789abcdefABCDEF-" for c in value)


def parse_trace_header(value: Optional[str]) -> tuple[Optional[str], Optional[str]]:
    """``(trace_id, parent_span_id)`` from a header value, or ``(None, None)``.

    Malformed values are treated as absent — an upstream speaking a different
    dialect must never break the request, it just starts a fresh trace.
    """
    if not value:
        return None, None
    trace_id, _sep, parent = value.partition(":")
    trace_id = trace_id.strip()
    parent = parent.strip()
    if not _valid_id(trace_id):
        return None, None
    if parent and not _valid_id(parent):
        parent = ""
    return trace_id, (parent or None)


def format_trace_header(trace_id: str, span_id: Optional[str] = None) -> str:
    """Encode the propagation header for a downstream hop."""
    return f"{trace_id}:{span_id}" if span_id else trace_id


# ----------------------------------------------------------------------
# spans and traces
# ----------------------------------------------------------------------
@dataclasses.dataclass(slots=True)
class Span:
    """One named, timed segment of a trace (wall-clock seconds).

    Slotted: several spans are minted per traced request on the serving hot
    path, and the per-instance ``__dict__`` they would otherwise carry is
    measurable GC pressure on the gateway's event loop.
    """

    name: str
    span_id: str
    parent_id: Optional[str]
    start: float
    end: float
    annotations: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": round(self.duration, 9),
            "annotations": dict(self.annotations),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Span":
        return cls(
            name=str(data["name"]),
            span_id=str(data["span_id"]),
            parent_id=(None if data.get("parent_id") is None else str(data["parent_id"])),
            start=float(data["start"]),
            end=float(data["end"]),
            annotations=dict(data.get("annotations", {})),
        )


class Trace:
    """One process's fragment of a request trace.

    The object is single-request, single-task state (the gateway builds one
    per ``/solve`` and never shares it), so there is no locking; the recorder
    it lands in is the thread-safe part.
    """

    __slots__ = (
        "trace_id",
        "origin",
        "remote_parent",
        "metadata",
        "spans",
        "status",
        "_wall0",
        "_perf0",
        "_offset",
        "_end_perf",
    )

    def __init__(
        self,
        trace_id: Optional[str] = None,
        origin: str = "gateway",
        remote_parent: Optional[str] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace_id = trace_id or new_id()
        self.origin = origin
        self.remote_parent = remote_parent
        # the trace takes ownership of the metadata dict (hot-path callers
        # always hand over a fresh literal; copying it again is pure churn)
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self.spans: List[Span] = []
        self.status = "open"
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()
        self._offset = self._wall0 - self._perf0
        self._end_perf: Optional[float] = None

    # ------------------------------------------------------------------
    @classmethod
    def begin(
        cls,
        header: Optional[str] = None,
        origin: str = "gateway",
        metadata: Optional[Dict[str, object]] = None,
    ) -> "Trace":
        """Continue the trace named in ``header`` or start a fresh one."""
        trace_id, parent = parse_trace_header(header)
        return cls(trace_id=trace_id, origin=origin, remote_parent=parent, metadata=metadata)

    # ------------------------------------------------------------------
    def wall(self, perf_instant: float) -> float:
        """Convert a ``perf_counter`` instant to this trace's wall clock."""
        return self._offset + perf_instant

    @property
    def start(self) -> float:
        return self._wall0

    @property
    def end(self) -> float:
        if self._end_perf is None:
            return self.wall(time.perf_counter())
        return self.wall(self._end_perf)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(
        self, name: str, parent: Optional[Span] = None, **annotations: object
    ) -> Iterator[Span]:
        """Time a block as one span (annotations may be added on the yielded
        span while it is open)."""
        start = time.perf_counter()
        span = Span(
            name=name,
            span_id=new_id(),
            parent_id=parent.span_id if parent is not None else self.remote_parent,
            start=self.wall(start),
            end=0.0,
            annotations=annotations,  # the **kwargs dict is already fresh
        )
        try:
            yield span
        finally:
            span.end = self.wall(time.perf_counter())
            self.spans.append(span)

    def add_span(
        self,
        name: str,
        start_perf: float,
        end_perf: float,
        parent: Optional[Span] = None,
        **annotations: object,
    ) -> Span:
        """Record a span from explicit ``perf_counter`` instants."""
        span = Span(
            name=name,
            span_id=new_id(),
            parent_id=parent.span_id if parent is not None else self.remote_parent,
            start=self.wall(start_perf),
            end=self.wall(end_perf),
            annotations=annotations,  # the **kwargs dict is already fresh
        )
        self.spans.append(span)
        return span

    def add_stage_spans(
        self,
        stages: Optional[Sequence[Mapping[str, object]]],
        parent: Span,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> None:
        """Re-attach solver stage timings as child spans of ``parent``.

        Stages carry durations, not absolute instants (they were measured
        on a solver thread), so they are laid out back-to-back — preserving
        order and proportion, which is what the dashboard and the nesting
        tests read.  The first starts at ``start``
        (a ``perf_counter`` instant; default the parent span's start).  With
        ``end`` (the ``perf_counter`` instant the result arrived) the last
        ends there instead, unless that would start the first before
        ``start``: a solve that waited for a thread after ``start`` is drawn
        where it ran, not inside the wait.
        """
        laid = []
        for stage in stages or ():
            try:
                seconds = max(0.0, float(stage["seconds"]))
                name = str(stage["name"])
            except (KeyError, TypeError, ValueError):
                continue
            annotations = {
                key: value
                for key, value in stage.items()
                if key not in ("name", "seconds")
            }
            laid.append((name, seconds, annotations))
        cursor = parent.start if start is None else self.wall(start)
        if end is not None:
            cursor = max(cursor, self.wall(end) - sum(seconds for _, seconds, _ in laid))
        for name, seconds, annotations in laid:
            self.spans.append(
                Span(
                    name=name,
                    span_id=new_id(),
                    parent_id=parent.span_id,
                    start=cursor,
                    end=cursor + seconds,
                    annotations=annotations,
                )
            )
            cursor += seconds

    # ------------------------------------------------------------------
    def finish(self, status: str = "ok") -> "Trace":
        """Seal the trace (idempotent: the first status wins)."""
        if self._end_perf is None:
            self._end_perf = time.perf_counter()
            self.status = status
        return self

    def as_dict(self) -> Dict[str, object]:
        """The JSON document ``/debug/traces`` serves and the JSONL sink
        persists (one line each)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "origin": self.origin,
            "remote_parent": self.remote_parent,
            "status": self.status,
            "start": self._wall0,
            "end": self.end,
            "duration": round(self.duration, 9),
            "metadata": dict(self.metadata),
            "spans": [span.as_dict() for span in self.spans],
        }

    def summary(self) -> Dict[str, object]:
        """The compact row the trace-list endpoint and dashboard render."""
        return {
            "trace_id": self.trace_id,
            "origin": self.origin,
            "status": self.status,
            "start": self._wall0,
            "duration_ms": round(self.duration * 1e3, 3),
            "spans": len(self.spans),
            "fingerprint": self.metadata.get("fingerprint"),
        }


def summarize_trace_doc(doc: Mapping[str, object]) -> Dict[str, object]:
    """Compact list-endpoint row for an exported trace document."""
    spans = doc.get("spans") or []
    metadata = doc.get("metadata") or {}
    return {
        "trace_id": doc.get("trace_id"),
        "origin": doc.get("origin"),
        "status": doc.get("status"),
        "start": doc.get("start"),
        "duration_ms": round(float(doc.get("duration", 0.0)) * 1e3, 3),
        "spans": len(spans),
        "fingerprint": metadata.get("fingerprint") if isinstance(metadata, dict) else None,
    }


# ----------------------------------------------------------------------
# solver stage hooks (thread-local, near-zero cost when uncollected)
# ----------------------------------------------------------------------
_STAGE_SINK = threading.local()


def record_stage(name: str, seconds: float, **annotations: object) -> None:
    """Report one solver stage timing to the current thread's collector.

    A no-op (one attribute probe) unless :func:`collect_stages` is active on
    this thread — the hot solve paths call this unconditionally.
    """
    sink = getattr(_STAGE_SINK, "sink", None)
    if sink is None:
        return
    entry: Dict[str, object] = {"name": name, "seconds": float(seconds)}
    if annotations:
        entry.update(annotations)
    sink.append(entry)


@contextlib.contextmanager
def stage_timer(name: str, **annotations: object) -> Iterator[None]:
    """Time a block as one stage; free when no collector is installed."""
    if getattr(_STAGE_SINK, "sink", None) is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        record_stage(name, time.perf_counter() - start, **annotations)


@contextlib.contextmanager
def collect_stages() -> Iterator[List[Dict[str, object]]]:
    """Collect every :func:`record_stage` call made on this thread.

    Nested collectors stack: the innermost wins (stages are not duplicated
    outward), matching one-solve-one-collector usage in the service layer.
    """
    previous = getattr(_STAGE_SINK, "sink", None)
    sink: List[Dict[str, object]] = []
    _STAGE_SINK.sink = sink
    try:
        yield sink
    finally:
        _STAGE_SINK.sink = previous
