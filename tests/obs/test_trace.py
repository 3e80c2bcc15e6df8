"""Unit tests for the trace/span model, header propagation, and stage hooks."""

import json
import threading

import pytest

from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    Trace,
    collect_stages,
    format_trace_header,
    new_id,
    parse_trace_header,
    record_stage,
    stage_timer,
    summarize_trace_doc,
)


class TestHeader:
    def test_round_trip_with_parent(self):
        header = format_trace_header("abc123", "def456")
        assert parse_trace_header(header) == ("abc123", "def456")

    def test_round_trip_without_parent(self):
        assert parse_trace_header(format_trace_header("abc123")) == ("abc123", None)

    @pytest.mark.parametrize("value", [None, "", "not hex!", "x" * 65])
    def test_malformed_values_never_raise(self, value):
        assert parse_trace_header(value) == (None, None)

    def test_bad_parent_is_dropped_but_id_kept(self):
        trace_id, parent = parse_trace_header("ab12:" + "y" * 70)
        assert trace_id == "ab12" and parent is None

    def test_header_name_is_stable(self):
        # the wire contract: changing this breaks cross-version fleets
        assert TRACE_HEADER == "X-Repro-Trace"


class TestTrace:
    def test_begin_continues_remote_trace(self):
        trace = Trace.begin("cafe01:beef02", origin="gateway")
        assert trace.trace_id == "cafe01"
        assert trace.remote_parent == "beef02"

    def test_begin_mints_when_no_header(self):
        trace = Trace.begin(None, origin="router")
        assert trace.trace_id and trace.remote_parent is None

    def test_span_nesting_and_document(self):
        trace = Trace.begin(None)
        with trace.span("outer") as outer:
            with trace.span("inner", parent=outer, detail=7) as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.start <= inner.start <= inner.end <= outer.end
        doc = trace.finish("ok").as_dict()
        json.dumps(doc)  # must be JSON-serializable as-is
        assert doc["status"] == "ok"
        assert [span["name"] for span in doc["spans"]] == ["inner", "outer"]
        assert doc["spans"][0]["annotations"] == {"detail": 7}

    def test_finish_is_idempotent_first_status_wins(self):
        trace = Trace.begin(None)
        trace.finish("http_503")
        trace.finish("ok")
        assert trace.status == "http_503"

    def test_stage_spans_lay_back_to_back_under_parent(self):
        trace = Trace.begin(None)
        parent = Span("solve", new_id(), None, trace.start, trace.start + 1.0)
        stages = [
            {"name": "milp.presolve", "seconds": 0.25, "shortcut": False},
            {"name": "milp.search", "seconds": 0.5, "backend": "scipy-highs"},
            {"name": "bogus entry without seconds"},  # skipped, not fatal
        ]
        trace.add_stage_spans(stages, parent)
        laid = [span for span in trace.spans if span.parent_id == parent.span_id]
        assert [span.name for span in laid] == ["milp.presolve", "milp.search"]
        assert laid[0].start == parent.start
        assert laid[1].start == pytest.approx(laid[0].end)
        assert laid[0].annotations == {"shortcut": False}

    def test_stage_spans_end_at_arrival_but_not_before_start(self):
        trace = Trace.begin(None)
        parent = Span("solve", new_id(), None, trace.start, trace.start + 2.0)
        stages = [{"name": "a", "seconds": 0.25}, {"name": "b", "seconds": 0.5}]
        # the solve waited for a thread: drawn where it ran, ending on arrival
        trace.add_stage_spans(stages, parent, start=10.0, end=11.0)
        # arrival earlier than start + total: clamped to start
        trace.add_stage_spans(stages, parent, start=10.0, end=10.5)
        waited, clamped = trace.spans[:2], trace.spans[2:]
        assert waited[0].start == pytest.approx(trace.wall(10.25))
        assert waited[1].end == pytest.approx(trace.wall(11.0))
        assert clamped[0].start == pytest.approx(trace.wall(10.0))

    def test_summary_matches_doc_summary(self):
        trace = Trace.begin(None, origin="gateway")
        trace.metadata["fingerprint"] = "f00d"
        with trace.span("work"):
            pass
        trace.finish("ok")
        assert trace.summary()["fingerprint"] == "f00d"
        doc_row = summarize_trace_doc(trace.as_dict())
        assert doc_row["trace_id"] == trace.trace_id
        assert doc_row["spans"] == 1
        assert doc_row["fingerprint"] == "f00d"


class TestStageHooks:
    def test_record_stage_is_noop_without_collector(self):
        record_stage("milp.search", 0.5)  # must not raise or leak anywhere
        with collect_stages() as stages:
            pass
        assert stages == []

    def test_collects_stages_with_annotations(self):
        with collect_stages() as stages:
            record_stage("milp.presolve", 0.1, shortcut=True)
            with stage_timer("milp.search", backend="bb"):
                pass
        assert [s["name"] for s in stages] == ["milp.presolve", "milp.search"]
        assert stages[0]["shortcut"] is True
        assert stages[1]["seconds"] >= 0.0

    def test_nested_collectors_innermost_wins(self):
        with collect_stages() as outer:
            with collect_stages() as inner:
                record_stage("a", 1.0)
            record_stage("b", 2.0)
        assert [s["name"] for s in inner] == ["a"]
        assert [s["name"] for s in outer] == ["b"]

    def test_sink_is_thread_local(self):
        seen_in_thread = []

        def worker():
            record_stage("other-thread", 1.0)  # no collector on this thread
            with collect_stages() as mine:
                record_stage("mine", 1.0)
            seen_in_thread.extend(mine)

        with collect_stages() as stages:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert stages == []  # nothing leaked across threads
        assert [s["name"] for s in seen_in_thread] == ["mine"]
