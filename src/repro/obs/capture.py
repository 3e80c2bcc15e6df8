"""Production-trace capture: turn recorded traces into replayable load.

The tracing pipeline (:mod:`repro.obs.trace`) leaves behind trace documents —
in the ``/debug/traces`` ring and, with a sink configured, in a JSONL file.
This module distils them into a **capture**: one JSON document holding the
observed solve-request sequence (fingerprints, job names, inter-arrival
offsets) plus a dwell-timed :class:`~repro.runtime.scheduler.ModeSchedule`
encoding of the same sequence.  One capture feeds both replay paths:

* the **simulator** — :meth:`repro.sim.traffic.TraceReplayTraffic.from_capture`
  replays the captured cadence as timed mode requests;
* the **load generator** — :func:`repro.server.loadgen.replay_loop` re-sends
  the captured request sequence against a live gateway or fleet, resolving
  each fingerprint back to a request payload.

A request usually appears in several recorders (the router's fragment and
the owning replica's fragment share one trace id); capture keeps exactly one
entry per trace id, preferring the origin fragment — the process that minted
the id and therefore saw the request first.

``python -m repro.obs export`` is the CLI wrapper (see ``__main__``).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Optional

from repro.obs.trace import TRACE_SCHEMA_VERSION
from repro.runtime.scheduler import ModeSchedule

__all__ = [
    "CAPTURE_SCHEMA_VERSION",
    "load_trace_docs",
    "fetch_trace_docs",
    "select_requests",
    "build_capture",
    "capture_schedule",
    "write_capture",
    "load_capture",
]

CAPTURE_SCHEMA_VERSION = 1

#: Fingerprint prefix length used for schedule mode tags (long enough that
#: collisions within one capture are implausible, short enough to read).
_TAG_CHARS = 12


def load_trace_docs(path: str) -> List[Dict[str, object]]:
    """Trace documents from a file: JSONL (one doc per line, as the
    :class:`~repro.obs.recorder.JsonlSink` writes) or JSON (a list, or a
    ``/debug/traces?full=1`` response with a ``"traces"`` key)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, list):
            return [doc for doc in data if isinstance(doc, dict)]
        if isinstance(data, dict):
            traces = data.get("traces", [])
            if isinstance(traces, list):
                return [doc for doc in traces if isinstance(doc, dict)]
    docs: List[Dict[str, object]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue  # a torn line from a rotated sink is not fatal
        if isinstance(doc, dict):
            docs.append(doc)
    return docs


def fetch_trace_docs(
    host: str, port: int, limit: int = 500, timeout: float = 10.0
) -> List[Dict[str, object]]:
    """Full trace documents from a live gateway or router's debug endpoint.

    Raises :class:`OSError` when the endpoint cannot be reached within
    ``timeout`` seconds or answers anything but a 200 JSON object (a gateway
    with tracing off answers 404).
    """
    # imported here so the offline capture paths load no HTTP client
    from repro.server.http import TRACES_PATH
    from repro.server.loadgen import fetch_json

    data = fetch_json(host, port, f"{TRACES_PATH}?full=1&limit={int(limit)}", timeout)
    return [doc for doc in data.get("traces", []) if isinstance(doc, dict)]


def _is_origin(doc: Mapping[str, object]) -> bool:
    return doc.get("remote_parent") is None


def select_requests(docs: Iterable[Mapping[str, object]]) -> List[Dict[str, object]]:
    """One replayable request per trace id, in arrival order.

    Only decoded solve traces (those carrying a fingerprint) qualify; among
    fragments sharing a trace id the origin fragment wins, falling back to
    the earliest-starting one when the origin never reached this collection.
    """
    chosen: Dict[str, Mapping[str, object]] = {}
    for doc in docs:
        metadata = doc.get("metadata")
        if not isinstance(metadata, dict) or not metadata.get("fingerprint"):
            continue
        trace_id = str(doc.get("trace_id", ""))
        if not trace_id:
            continue
        current = chosen.get(trace_id)
        if current is None:
            chosen[trace_id] = doc
            continue
        if _is_origin(doc) and not _is_origin(current):
            chosen[trace_id] = doc
        elif _is_origin(doc) == _is_origin(current) and float(
            doc.get("start", 0.0)
        ) < float(current.get("start", 0.0)):
            chosen[trace_id] = doc

    ordered = sorted(chosen.values(), key=lambda doc: float(doc.get("start", 0.0)))
    if not ordered:
        return []
    first_start = float(ordered[0].get("start", 0.0))
    requests = []
    for doc in ordered:
        metadata = doc["metadata"]  # type: ignore[index]
        requests.append(
            {
                "offset": round(float(doc.get("start", 0.0)) - first_start, 9),
                "fingerprint": str(metadata["fingerprint"]),
                "job": str(metadata.get("job") or "solve"),
                "client": metadata.get("client"),
                "trace_id": str(doc.get("trace_id")),
                "origin": doc.get("origin"),
                "status": doc.get("status"),
                "duration": float(doc.get("duration", 0.0)),
            }
        )
    return requests


def build_capture(
    docs: Iterable[Mapping[str, object]], source: Optional[str] = None
) -> Dict[str, object]:
    """The capture document: request sequence + its ModeSchedule encoding.

    The schedule maps each request to one activation — region is the job
    name, mode a short fingerprint tag — and its dwells are the observed
    inter-arrival gaps, so :meth:`ModeSchedule.timed_steps` reproduces the
    captured offsets exactly (the last dwell is 0: nothing follows it).
    """
    requests = select_requests(docs)
    steps = tuple(
        (request["job"], f"fp-{request['fingerprint'][:_TAG_CHARS]}")
        for request in requests
    )
    dwells: tuple = ()
    if len(requests) > 1:
        offsets = [float(request["offset"]) for request in requests]
        dwells = tuple(
            round(max(0.0, offsets[i + 1] - offsets[i]), 9)
            for i in range(len(offsets) - 1)
        ) + (0.0,)
    schedule = ModeSchedule(steps=steps, dwells=dwells)
    return {
        "schema": CAPTURE_SCHEMA_VERSION,
        "trace_schema": TRACE_SCHEMA_VERSION,
        "source": source,
        "requests": requests,
        "schedule": schedule.to_dict(),
    }


def capture_schedule(capture: Mapping[str, object]) -> ModeSchedule:
    """The embedded :class:`ModeSchedule` of a capture document."""
    return ModeSchedule.from_dict(dict(capture.get("schedule", {})))


def write_capture(capture: Mapping[str, object], path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(capture, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_capture(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        capture = json.load(handle)
    if not isinstance(capture, dict) or "requests" not in capture:
        raise ValueError(f"{path} is not a capture document")
    schema = capture.get("schema")
    if schema != CAPTURE_SCHEMA_VERSION:
        raise ValueError(
            f"capture schema {schema!r} unsupported "
            f"(this build reads schema {CAPTURE_SCHEMA_VERSION})"
        )
    return capture
