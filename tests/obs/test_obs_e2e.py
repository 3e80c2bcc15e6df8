"""End-to-end observability: one trace id across router → replica → solver,
and the full capture→replay round trip, over a real 2-replica subprocess
fleet.

The fleet fixture is module-scoped (replica start-up dominates); tests use
distinct payload indices so cache state never couples them.
"""

import asyncio

import pytest

from repro.fleet import BackgroundFleet
from repro.obs.capture import build_capture, capture_schedule, fetch_trace_docs
from repro.server.loadgen import (
    GatewayClient,
    closed_loop,
    demo_payloads,
    replay_loop,
)
from repro.server.protocol import job_from_dict
from repro.sim.traffic import TraceReplayTraffic

#: wall-clock tolerance when comparing instants across two processes (their
#: traces anchor time.time() independently; same host, so skew is tiny)
CROSS_PROCESS_EPS = 0.25
#: tolerance within one process's fragment (pure float round-off)
IN_PROCESS_EPS = 1e-6


@pytest.fixture(scope="module")
def payloads():
    return demo_payloads(unique=6, time_limit=20.0)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("obs-fleet-cache")
    with BackgroundFleet(replicas=2, cache_dir=str(cache_dir)) as running:
        yield running


async def fetch_json(host, port, path):
    async with GatewayClient(host, port) as client:
        return await client.request("GET", path)


def spans_by_id(doc):
    return {span["span_id"]: span for span in doc["spans"]}


def assert_nested(doc, eps):
    """Every span with an in-fragment parent lies within the parent's window."""
    table = spans_by_id(doc)
    checked = 0
    for span in doc["spans"]:
        parent = table.get(span.get("parent_id"))
        if parent is None:
            continue
        assert parent["start"] - eps <= span["start"], (span["name"], parent["name"])
        assert span["end"] <= parent["end"] + eps, (span["name"], parent["name"])
        assert span["start"] <= span["end"] + eps, span["name"]
        checked += 1
    return checked


class TestOneTraceAcrossTheFleet:
    def test_trace_id_spans_router_replica_and_solver(self, fleet, payloads):
        fingerprint = job_from_dict(payloads[0]).fingerprint

        async def scenario():
            async with GatewayClient(fleet.host, fleet.port, client_id="obs") as client:
                status, body = await client.solve(payloads[0])
                assert status == 200, body
            # the router's fragment names the trace
            status, listing = await fetch_json(
                fleet.host, fleet.port, "/debug/traces?full=1&limit=5"
            )
            assert status == 200
            router_doc = next(
                doc for doc in listing["traces"]
                if doc["metadata"].get("fingerprint") == fingerprint
            )
            trace_id = router_doc["trace_id"]
            root = router_doc["spans"][0]
            assert root["name"] == "router.request"
            names = [span["name"] for span in router_doc["spans"]]
            assert "router.decode" in names and "router.forward" in names
            assert assert_nested(router_doc, IN_PROCESS_EPS) >= 2

            # exactly one replica (the ring owner) carries the same trace id
            fragments = []
            for port in fleet.manager.ports:
                status, doc = await fetch_json(
                    fleet.host, port, f"/debug/traces/{trace_id}"
                )
                if status == 200:
                    fragments.append((port, doc))
            assert len(fragments) == 1
            owner_port, replica_doc = fragments[0]
            owner_node = fleet.router.ring.owner(fingerprint)
            assert owner_port == int(owner_node.rsplit(":", 1)[1])

            # the replica fragment hangs off the router's root span ...
            assert replica_doc["remote_parent"] == root["span_id"]
            gateway_root = replica_doc["spans"][0]
            assert gateway_root["name"] == "gateway.request"
            assert gateway_root["parent_id"] == root["span_id"]
            # ... and includes the solver stages as spans of the solve
            replica_names = [span["name"] for span in replica_doc["spans"]]
            assert "gateway.solve" in replica_names
            assert "milp.search" in replica_names
            assert any(name.startswith("floorplan.") for name in replica_names)
            # the search span says how HiGHS ran: from the HO seed, presolve off
            search = next(s for s in replica_doc["spans"] if s["name"] == "milp.search")
            seed = next(s for s in replica_doc["spans"] if s["name"] == "floorplan.ho_seed")
            assert seed["annotations"]["seed_status"] != "failed"
            assert search["annotations"]["start_objective"] >= body["result"]["objective"] - 1e-9
            assert search["annotations"]["presolve"] == "off"
            assert search["annotations"]["model_status"] == "Optimal"

            # span timestamps nest monotonically, within and across processes
            assert assert_nested(replica_doc, IN_PROCESS_EPS) >= 5
            assert gateway_root["start"] >= root["start"] - CROSS_PROCESS_EPS
            assert replica_doc["metadata"]["fingerprint"] == fingerprint

        asyncio.run(scenario())

    def test_response_carries_the_trace_header(self, fleet, payloads):
        async def scenario():
            async with GatewayClient(fleet.host, fleet.port) as client:
                status, _body = await client.solve(payloads[1])
                return status, client.last_headers

        status, headers = asyncio.run(scenario())
        assert status == 200
        assert headers["x-repro-trace"]


class TestCaptureReplayRoundTrip:
    def test_loadgen_capture_sim_and_replay_agree(self, fleet, payloads):
        replay_payloads = payloads[2:5]

        # 1. production traffic: a closed-loop run through the router
        result = asyncio.run(
            closed_loop(fleet.host, fleet.port, replay_payloads,
                        clients=2, requests_per_client=3)
        )
        assert result.ok == result.sent == 6

        # 2. capture: export the router's traces into a capture document
        docs = fetch_trace_docs(fleet.host, fleet.port, limit=100)
        replay_fingerprints = {
            job_from_dict(payload).fingerprint for payload in replay_payloads
        }
        docs = [
            doc for doc in docs
            if doc["metadata"].get("fingerprint") in replay_fingerprints
        ]
        capture = build_capture(docs, source="test")
        captured = [request["fingerprint"] for request in capture["requests"]]
        assert len(captured) == 6
        offsets = [request["offset"] for request in capture["requests"]]
        assert offsets == sorted(offsets)

        # 3a. simulator replay: same sequence, same relative cadence
        schedule = capture_schedule(capture)
        sim_requests = TraceReplayTraffic.from_capture(capture).generate(3600.0)
        assert len(sim_requests) == 6
        assert [request.mode for request in sim_requests] == [
            f"fp-{fingerprint[:12]}" for fingerprint in captured
        ]
        assert [round(r.time, 6) for r in sim_requests] == [
            round(t, 6) for t, _r, _m in schedule.timed_steps()
        ]

        # 3b. loadgen replay: the same request sequence re-executes
        outcome = asyncio.run(
            replay_loop(fleet.host, fleet.port, capture, replay_payloads)
        )
        assert outcome.skipped == []
        assert outcome.executed == captured
        assert outcome.result.ok == 6
        # replayed jobs were all solved before: served from cache end to end
        assert outcome.result.hits == 6


class TestDecodeMemoAcrossTheFleet:
    def test_second_send_is_a_memo_hit_in_router_and_replica(self, fleet, payloads):
        payload = payloads[5]
        fingerprint = job_from_dict(payload).fingerprint

        def memo_flags(doc, span_name):
            return [
                span["annotations"]["memo"]
                for span in doc["spans"] if span["name"] == span_name
            ]

        async def traces_of(port):
            status, listing = await fetch_json(
                fleet.host, port, "/debug/traces?full=1&limit=50"
            )
            assert status == 200
            # most recent first: reverse into send order
            return [
                doc for doc in reversed(listing["traces"])
                if doc["metadata"].get("fingerprint") == fingerprint
            ]

        async def scenario():
            _status, before = await fetch_json(
                fleet.host, fleet.port, "/metrics?format=json"
            )
            async with GatewayClient(fleet.host, fleet.port) as client:
                for _ in range(2):
                    status, body = await client.solve(payload)
                    assert status == 200, body
            _status, after = await fetch_json(
                fleet.host, fleet.port, "/metrics?format=json"
            )
            router_docs = await traces_of(fleet.port)
            replica_docs = []
            for port in fleet.manager.ports:
                replica_docs += await traces_of(port)
            return before, after, router_docs, replica_docs

        before, after, router_docs, replica_docs = asyncio.run(scenario())
        assert [memo_flags(doc, "router.decode") for doc in router_docs] == [
            [False], [True]
        ]
        assert [memo_flags(doc, "gateway.decode") for doc in replica_docs] == [
            [False], [True]
        ]
        router_hits = after["router"]["decode_memo_hits"] - before["router"]["decode_memo_hits"]
        replica_hits = (
            after["counters"]["decode_memo_hits"] - before["counters"]["decode_memo_hits"]
        )
        assert router_hits == 1 and replica_hits == 1
