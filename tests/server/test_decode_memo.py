"""The ``/solve`` decode memo shared by the gateway and the router.

``HttpServer.decode_job`` keys a body by the SHA-256 of its exact bytes.  A
memo hit must give what a fresh decode gives, a body that fails to decode
must never enter the memo, and a memo hit whose cache entry is gone must
still be decoded and solved.
"""

import asyncio
import json
import sys
import threading

import pytest

from repro.obs.trace import Span, Trace, new_id
from repro.server.gateway import BackgroundGateway, GatewayConfig
from repro.server.http import (
    DECODE_MEMO_ENTRIES,
    INLINE_DIGEST_BYTES,
    MEMO_NAME_CHARS,
    DecodeMemo,
    HttpRequest,
    HttpServer,
    JobKey,
    open_connection,
    round_trip,
)
from repro.server.protocol import deadline_from_payload, job_from_dict, job_to_dict
from repro.service.cache import SolveCache
from tests.server.malformed_bodies import (
    DEVICE_ERRORS,
    NON_INTEGER_VALUES,
    base_payload,
    mutated,
)
from tests.server.test_gateway_e2e import StubWorkerPool
from tests.service.test_golden_fingerprints import GOLDEN, golden_jobs


class _Server(HttpServer):
    kind = "test"


def _server():
    return _Server(GatewayConfig(port=0))


def _decode(server, body: bytes, traced: bool = False):
    """``(key, job, decode span or None)`` of one ``decode_job`` call."""
    trace = root = None
    if traced:
        trace = Trace.begin(None, origin="test")
        root = Span(name="test.request", span_id=new_id(), parent_id=None,
                    start=trace.start, end=0.0)
    request = HttpRequest(method="POST", path="/solve", headers={}, body=body)
    key, job = asyncio.run(server.decode_job(request, trace, root))
    span = trace.spans[-1] if traced else None
    return key, job, span


def _wire(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


@pytest.fixture(scope="module")
def golden_bodies():
    bodies = {}
    for name, job in golden_jobs().items():
        payload = job_to_dict(job)
        payload["deadline_s"] = 7.5
        bodies[name] = _wire(payload)
    return bodies


class TestMemoHits:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_memo_hit_matches_a_fresh_decode(self, golden_bodies, name):
        body = golden_bodies[name]
        payload = json.loads(body)
        fresh = job_from_dict(payload)
        expected = JobKey(fresh.fingerprint, deadline_from_payload(payload), fresh.name)
        server = _server()
        first, job, span = _decode(server, body, traced=True)
        assert job is not None and job.fingerprint == GOLDEN[name]
        assert first == expected
        assert span.name == "test.decode" and span.annotations["memo"] is False
        again, job, span = _decode(server, body, traced=True)
        assert job is None
        assert again == expected
        assert again.fingerprint == GOLDEN[name]
        assert again.deadline_s == 7.5
        assert span.annotations["memo"] is True

    def test_same_content_in_different_bytes_misses_but_agrees(self, golden_bodies):
        payload = json.loads(golden_bodies["syn12x5-reloc"])
        server = _server()
        key, _job, _span = _decode(server, _wire(payload))
        reordered = json.dumps(dict(reversed(list(payload.items())))).encode()
        spaced = json.dumps(payload, indent=2).encode()
        for body in (reordered, spaced):
            other, job, _span = _decode(server, body)
            assert job is not None  # different bytes: a fresh decode
            assert other == key
        assert len(server.decode_memo) == 3

    def test_long_body_is_memoized_off_the_loop(self, golden_bodies):
        body = golden_bodies["sdr"] + b" " * INLINE_DIGEST_BYTES  # valid JSON
        server = _server()
        key, job, _span = _decode(server, body)
        assert job is not None and key.fingerprint == GOLDEN["sdr"]
        again, job, span = _decode(server, body, traced=True)
        assert job is None and again == key
        assert span.annotations["memo"] is True


class TestMemoBound:
    def test_lru_evicts_at_its_constant(self):
        memo = DecodeMemo()
        assert memo.capacity == DECODE_MEMO_ENTRIES
        keys = [JobKey(f"{i:064x}", None, f"job{i}") for i in range(DECODE_MEMO_ENTRIES + 1)]
        digests = [memo.digest(str(i).encode()) for i in range(len(keys))]
        for digest, key in zip(digests[:-1], keys[:-1]):
            memo.put(digest, key)
        assert len(memo) == DECODE_MEMO_ENTRIES
        assert memo.get(digests[0]) == keys[0]  # refresh: digests[1] is now LRU
        memo.put(digests[-1], keys[-1])
        assert len(memo) == DECODE_MEMO_ENTRIES
        assert memo.get(digests[1]) is None
        assert memo.get(digests[0]) == keys[0]
        assert memo.get(digests[-1]) == keys[-1]

    def test_a_body_with_a_long_name_is_never_memoized(self):
        payload = base_payload()
        payload["tag"] = "t" * MEMO_NAME_CHARS  # the name comes from the body
        server = _server()
        for _ in range(2):
            key, job, _span = _decode(server, _wire(payload))
            assert job is not None and len(key.name) > MEMO_NAME_CHARS
        assert len(server.decode_memo) == 0

    def test_concurrent_puts_and_gets_keep_the_bound_and_the_pairs(self):
        # long bodies are memoized from executor threads while the loop reads
        memo = DecodeMemo(capacity=16)
        keys = {memo.digest(str(i).encode()): JobKey(f"{i:064x}", None, f"j{i}")
                for i in range(64)}
        digests = list(keys)
        errors = []

        def hammer(offset):
            try:
                for step in range(5000):
                    digest = digests[(offset * 7 + step) % len(digests)]
                    memo.put(digest, keys[digest])
                    queried = digests[(offset + step * 3) % len(digests)]
                    found = memo.get(queried)
                    if found is not None and found != keys[queried]:
                        errors.append(found)
            except Exception as exc:  # noqa: BLE001 - reported by the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= 16


def _malformed_bodies():
    cases = [(case_id, _wire(mutated(mutate))) for case_id, mutate, _msg in DEVICE_ERRORS]
    cases += [(case_id, _wire(mutated(mutate))) for case_id, mutate in NON_INTEGER_VALUES]
    cases.append(("bad-deadline", _wire({**base_payload(), "deadline_s": "soon"})))
    cases += [("not-json", b"not-json!"), ("empty", b""), ("array", b"[1, 2]")]
    return cases


def _stub_gateway():
    cache = SolveCache()
    pool = StubWorkerPool(cache)
    gateway = BackgroundGateway(
        config=GatewayConfig(port=0), cache=cache, worker_pool=pool
    )
    return gateway, cache, pool


async def _post_all(port, bodies):
    reader, writer = await open_connection("127.0.0.1", port)
    answers = []
    try:
        for body in bodies:
            status, _headers, payload = await round_trip(
                reader, writer, "POST", "/solve", "127.0.0.1", body
            )
            answers.append((status, json.loads(payload)))
    finally:
        writer.close()
    return answers


class TestGatewayMemo:
    def test_malformed_bodies_answer_400_twice_and_stay_out(self):
        cases = _malformed_bodies()
        gateway, _cache, pool = _stub_gateway()
        with gateway:
            bodies = [body for _case, body in cases for _ in range(2)]
            answers = asyncio.run(_post_all(gateway.port, bodies))
            memo_size = len(gateway.gateway.decode_memo)
            counters = gateway.gateway.metrics_snapshot()["counters"]
        for index, (case_id, _body) in enumerate(cases):
            first, second = answers[2 * index], answers[2 * index + 1]
            assert first[0] == second[0] == 400, case_id
            assert first[1] == second[1], case_id
        assert memo_size == 0
        assert pool.solved == 0
        assert counters["decode_memo_hits"] == 0
        assert counters["bad_requests"] == 2 * len(cases)

    def test_memo_hit_without_a_cache_entry_is_decoded_and_solved(self):
        body = _wire(base_payload())
        gateway, cache, pool = _stub_gateway()
        with gateway:
            first, second = asyncio.run(_post_all(gateway.port, [body, body]))
            cache.clear()
            (third,) = asyncio.run(_post_all(gateway.port, [body]))
            counters = gateway.gateway.metrics_snapshot()["counters"]
        assert first[0] == second[0] == third[0] == 200
        assert first[1]["cached"] is False
        assert second[1]["cached"] is True
        assert third[1]["cached"] is False
        assert third[1]["fingerprint"] == first[1]["fingerprint"]
        assert pool.solved == 2
        assert counters["decode_memo_hits"] == 2
        assert counters["cache_hits"] == 1 and counters["cache_misses"] == 2
