"""Unit tests for the trace recorder (eviction) and the JSONL sink (rotation)."""

import json
import os

import pytest

from repro.obs.recorder import JsonlSink, TraceRecorder
from repro.obs.trace import Trace


def trace(trace_id: str, **metadata) -> Trace:
    return Trace(trace_id=trace_id, metadata=metadata)


def ids(recorder, limit=None):
    return [d["trace_id"] for d in recorder.list(limit=limit)]


class TestRingEviction:
    def test_oldest_evicted_beyond_capacity(self):
        recorder = TraceRecorder(capacity=3)
        for index in range(5):
            recorder.record(trace(f"t{index}"))
        assert recorder.get("t0") is None and recorder.get("t1") is None
        assert recorder.get("t2") is not None
        stats = recorder.stats()
        assert stats == {"capacity": 3, "size": 3, "recorded": 5, "evicted": 2}

    def test_list_is_most_recent_first_and_bounded(self):
        recorder = TraceRecorder(capacity=10)
        for index in range(4):
            recorder.record(trace(f"t{index}"))
        assert ids(recorder) == ["t3", "t2", "t1", "t0"]
        assert ids(recorder, limit=2) == ["t3", "t2"]

    def test_same_id_re_record_replaces_in_place(self):
        recorder = TraceRecorder(capacity=2)
        recorder.record(trace("a", attempt=1))
        recorder.record(trace("b"))
        recorder.record(trace("a", attempt=2))  # replaces, does not re-order
        assert recorder.get("a")["metadata"] == {"attempt": 2}
        assert ids(recorder) == ["b", "a"]
        recorder.record(trace("c"))  # evicts "a" (still oldest), not "b"
        assert recorder.get("a") is None
        assert recorder.get("b") is not None and recorder.get("c") is not None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


class TestSinkRotation:
    def test_rotates_and_keeps_bounded_backups(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        sink = JsonlSink(path, max_bytes=1024, backups=2)
        big = {"trace_id": "x", "pad": "y" * 400}
        for _ in range(12):
            sink.write(big)
        stats = sink.stats()
        assert stats["written"] == 12
        assert stats["rotations"] >= 2
        assert os.path.exists(path)
        assert os.path.exists(path + ".1") and os.path.exists(path + ".2")
        assert not os.path.exists(path + ".3")  # oldest backups are dropped
        # every surviving line is intact JSON (rotation never tears a line)
        for candidate in (path, path + ".1", path + ".2"):
            with open(candidate, encoding="utf-8") as handle:
                for line in handle:
                    assert json.loads(line)["trace_id"] == "x"

    def test_zero_backups_truncates(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        sink = JsonlSink(path, max_bytes=1024, backups=0)
        for _ in range(10):
            sink.write({"pad": "z" * 300})
        assert sink.stats()["rotations"] >= 1
        assert not os.path.exists(path + ".1")

    def test_max_bytes_floor(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "t.jsonl"), max_bytes=10)


class TestRecorderFacade:
    def test_records_live_trace_into_ring_and_sink(self, tmp_path):
        recorder = TraceRecorder(capacity=8, sink_path=str(tmp_path / "t.jsonl"))
        live = Trace.begin(None, origin="gateway")
        with live.span("work"):
            pass
        recorder.record(live)  # still open: sealed on record
        assert live.status == "ok"
        assert recorder.get(live.trace_id)["status"] == "ok"
        recorder.record(trace("second"))
        assert recorder.get(live.trace_id)["origin"] == "gateway"
        assert ids(recorder)[0] == "second"
        stats = recorder.stats()
        assert stats["recorded"] == 2
        assert stats["sink"]["written"] == 2
        with open(tmp_path / "t.jsonl", encoding="utf-8") as handle:
            lines = [json.loads(line)["trace_id"] for line in handle]
        assert lines == [live.trace_id, "second"]
