"""repro.obs — end-to-end request tracing, dashboard, and capture→replay.

Stdlib-only observability for the serving stack: :mod:`repro.obs.trace`
(trace/span model, ``X-Repro-Trace`` propagation, solver stage hooks),
:mod:`repro.obs.recorder` (bounded ring + rotating JSONL sink behind
``GET /debug/traces``), :mod:`repro.obs.dashboard` (the ``/dashboard`` HTML),
and :mod:`repro.obs.capture` (captured traces → ``ModeSchedule``/TraceReplay
scenarios and loadgen replay files; ``python -m repro.obs export``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.capture": [
        "CAPTURE_SCHEMA_VERSION",
        "build_capture",
        "capture_schedule",
        "load_trace_docs",
        "load_capture",
        "write_capture",
    ],
    "repro.obs.trace": [
        "TRACE_HEADER",
        "TRACE_SCHEMA_VERSION",
        "Span",
        "Trace",
        "new_id",
        "parse_trace_header",
        "format_trace_header",
        "record_stage",
        "stage_timer",
        "collect_stages",
    ],
    "repro.obs.recorder": ["JsonlSink", "TraceRecorder"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
