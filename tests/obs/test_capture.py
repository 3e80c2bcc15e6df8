"""Capture building, schedule encoding, and both replay front-ends (offline)."""

import json
import socket
import threading
import time

import pytest

from repro.obs.capture import (
    CAPTURE_SCHEMA_VERSION,
    build_capture,
    capture_schedule,
    fetch_trace_docs,
    load_capture,
    load_trace_docs,
    select_requests,
    write_capture,
)
from repro.obs.__main__ import main as obs_main
from repro.runtime.scheduler import ModeSchedule
from repro.server import workers
from repro.server.gateway import BackgroundGateway, GatewayConfig
from repro.server.loadgen import demo_payloads
from repro.sim.traffic import TraceReplayTraffic
from tests.server.stubs import canned_result, send_all


def trace_doc(tid, start, fingerprint, job, origin="router", remote_parent=None):
    return {
        "schema": 1,
        "trace_id": tid,
        "origin": origin,
        "remote_parent": remote_parent,
        "status": "ok",
        "start": start,
        "end": start + 0.01,
        "duration": 0.01,
        "metadata": {"fingerprint": fingerprint, "job": job, "client": "c0"},
        "spans": [],
    }


@pytest.fixture
def docs():
    return [
        trace_doc("t1", 100.0, "aaa111222333", "demo-0"),
        # the owning replica's fragment of the same request: must be deduped
        trace_doc("t1", 100.002, "aaa111222333", "demo-0",
                  origin="gateway", remote_parent="abcd"),
        trace_doc("t2", 100.5, "bbb444555666", "demo-1"),
        trace_doc("t3", 101.25, "aaa111222333", "demo-0"),
        # never decoded (no fingerprint): not replayable
        {"trace_id": "t4", "start": 102.0, "metadata": {}, "spans": []},
    ]


class TestSelectRequests:
    def test_dedupes_by_trace_id_preferring_origin(self, docs):
        requests = select_requests(docs)
        assert [r["trace_id"] for r in requests] == ["t1", "t2", "t3"]
        assert requests[0]["origin"] == "router"  # not the replica fragment

    def test_offsets_are_relative_to_first_arrival(self, docs):
        requests = select_requests(docs)
        assert [r["offset"] for r in requests] == [0.0, 0.5, 1.25]


class TestCaptureDocument:
    def test_schedule_reproduces_captured_cadence(self, docs):
        capture = build_capture(docs, source="unit")
        schedule = capture_schedule(capture)
        assert schedule.steps == (
            ("demo-0", "fp-aaa111222333"),
            ("demo-1", "fp-bbb444555666"),
            ("demo-0", "fp-aaa111222333"),
        )
        timed = schedule.timed_steps()
        assert [time for time, _r, _m in timed] == [0.0, 0.5, 1.25]

    def test_sim_replay_fires_at_captured_offsets(self, docs):
        capture = build_capture(docs)
        requests = TraceReplayTraffic.from_capture(capture).generate(10.0)
        assert [request.time for request in requests] == [0.0, 0.5, 1.25]
        assert requests[1].region == "demo-1"

    def test_empty_capture_refused_by_sim_replay(self):
        with pytest.raises(ValueError, match="no replayable"):
            TraceReplayTraffic.from_capture(build_capture([]))

    def test_file_round_trip_and_schema_gate(self, tmp_path, docs):
        path = str(tmp_path / "capture.json")
        capture = build_capture(docs)
        write_capture(capture, path)
        loaded = load_capture(path)
        assert loaded["requests"] == capture["requests"]
        assert loaded["schema"] == CAPTURE_SCHEMA_VERSION
        bad = dict(capture, schema=99)
        write_capture(bad, path)
        with pytest.raises(ValueError, match="schema"):
            load_capture(path)


class TestLoadTraceDocs:
    def test_reads_jsonl_with_torn_lines(self, tmp_path, docs):
        path = tmp_path / "traces.jsonl"
        lines = [json.dumps(doc) for doc in docs[:3]] + ['{"torn": tr']
        path.write_text("\n".join(lines) + "\n")
        assert len(load_trace_docs(str(path))) == 3

    def test_reads_debug_endpoint_response_shape(self, tmp_path, docs):
        path = tmp_path / "traces.json"
        path.write_text(json.dumps({"traces": docs[:2], "stats": {}}))
        assert len(load_trace_docs(str(path))) == 2


class TestModeScheduleSerialization:
    def test_round_trip_preserves_steps_and_dwells(self):
        schedule = ModeSchedule(
            steps=(("A", "mode1"), ("B", "mode2")), dwells=(0.5, 0.0)
        )
        clone = ModeSchedule.from_dict(schedule.to_dict())
        assert clone == schedule
        assert json.loads(json.dumps(schedule.to_dict())) == schedule.to_dict()

    def test_untimed_round_trip(self):
        schedule = ModeSchedule(steps=(("A", "mode1"),))
        assert ModeSchedule.from_dict(schedule.to_dict()) == schedule


class TestExportCli:
    def test_export_from_jsonl(self, tmp_path, docs, capsys):
        source = tmp_path / "traces.jsonl"
        source.write_text("\n".join(json.dumps(doc) for doc in docs) + "\n")
        out = str(tmp_path / "capture.json")
        assert obs_main(["export", str(source), "-o", out]) == 0
        assert "export OK: 3 requests" in capsys.readouterr().out
        assert len(load_capture(out)["requests"]) == 3

    def test_export_fails_cleanly_on_empty_source(self, tmp_path, capsys):
        source = tmp_path / "empty.jsonl"
        source.write_text("")
        assert obs_main(["export", str(source), "-o", str(tmp_path / "c.json")]) == 1
        assert "no replayable" in capsys.readouterr().err

    def test_export_fails_cleanly_against_a_gateway_with_tracing_off(
        self, tmp_path, capsys
    ):
        with BackgroundGateway(GatewayConfig(port=0, tracing=False)) as gateway:
            endpoint = f"{gateway.host}:{gateway.port}"
            out = tmp_path / "c.json"
            assert obs_main(["export", endpoint, "-o", str(out)]) == 1
        assert "export FAIL: cannot fetch traces" in capsys.readouterr().err
        assert not out.exists()


def one_shot_server(response: bytes):
    """A listening socket that answers its first request with ``response``
    (``b""``: reads the request and never answers) on a daemon thread."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    done = threading.Event()

    def serve():
        conn, _ = listener.accept()
        with conn:
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
            if response:
                conn.sendall(response)
            done.wait(5.0)

    threading.Thread(target=serve, daemon=True).start()
    return listener, done


class TestFetchTraceDocs:
    def test_reads_full_documents_from_a_live_gateway(self, monkeypatch):
        monkeypatch.setattr(workers, "execute_job", canned_result)
        payloads = demo_payloads(unique=2, time_limit=5.0)
        with BackgroundGateway(GatewayConfig(port=0)) as gateway:
            assert send_all(gateway, payloads) == [200, 200]
            docs = fetch_trace_docs(gateway.host, gateway.port, limit=10)
        requests = select_requests(docs)
        assert len(requests) == 2
        assert len({request["fingerprint"] for request in requests}) == 2
        # full documents, not the summaries the endpoint lists by default
        assert all(isinstance(doc["spans"], list) and doc["spans"] for doc in docs)

    def test_limit_caps_the_documents(self, monkeypatch):
        monkeypatch.setattr(workers, "execute_job", canned_result)
        with BackgroundGateway(GatewayConfig(port=0)) as gateway:
            send_all(gateway, demo_payloads(unique=3, time_limit=5.0))
            docs = fetch_trace_docs(gateway.host, gateway.port, limit=1)
        assert len(docs) == 1

    def test_tracing_off_raises_a_connection_error_naming_the_status(self):
        with BackgroundGateway(GatewayConfig(port=0, tracing=False)) as gateway:
            with pytest.raises(ConnectionError, match="answered 404"):
                fetch_trace_docs(gateway.host, gateway.port)

    def test_a_closed_port_raises_os_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            fetch_trace_docs("127.0.0.1", port, timeout=5.0)

    def test_a_silent_endpoint_times_out_as_os_error(self):
        listener, done = one_shot_server(b"")
        try:
            started = time.perf_counter()
            with pytest.raises(OSError):
                fetch_trace_docs("127.0.0.1", listener.getsockname()[1], timeout=0.2)
            assert time.perf_counter() - started < 3.0
        finally:
            done.set()
            listener.close()

    def test_a_non_object_answer_raises_a_connection_error(self):
        listener, done = one_shot_server(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 2\r\n\r\n[]"
        )
        try:
            with pytest.raises(ConnectionError, match="answered 200"):
                fetch_trace_docs("127.0.0.1", listener.getsockname()[1], timeout=5.0)
        finally:
            done.set()
            listener.close()
