"""The encoded hit body: one encoder for every ``/solve`` result answer, and
a cache entry that encodes its hit body once.

The reference encoding is the one the gateway used before hit bodies were
stored: ``dataclasses.asdict`` of the record (a deep copy), ``cached``
forced on both levels, a NaN objective as ``null``, then ``json.dumps``.
"""

import asyncio
import dataclasses
import json
import math

import pytest

from repro.server.gateway import BackgroundGateway, GatewayConfig
from repro.server.http import open_connection, round_trip
from repro.server.loadgen import demo_payloads
from repro.server.protocol import hit_body, job_from_dict, result_body
from repro.service.cache import SolveCache
from repro.service.executor import execute_job
from repro.service.jobs import SolveJob
from repro.service.results import JobResult
from tests.server.test_gateway_e2e import StubWorkerPool

FP = "c" * 64


def reference_body(result: JobResult, cached: bool) -> bytes:
    data = dataclasses.asdict(result)
    data["cached"] = cached
    if math.isnan(result.objective):
        data["objective"] = None
    return json.dumps(
        {
            "fingerprint": result.fingerprint,
            "cached": cached,
            "degraded": result.degraded,
            "result": data,
        }
    ).encode("utf-8")


def record(**overrides) -> JobResult:
    fields = dict(
        fingerprint=FP,
        job_name="hit-body",
        status="optimal",
        feasible=True,
        objective=12.5,
        solve_time=0.25,
        wall_time=0.3,
        backend="highs",
        mode="HO",
        heuristic="tessellation",
        metrics={"wasted_frames": 4.0, "wirelength": 81.5},
        floorplan={
            "problem": "p",
            "placements": [{"region": "a", "col": 1, "row": 0, "width": 2, "height": 3}],
        },
        stages=[{"name": "milp.search", "seconds": 0.2, "model_status": "Optimal"}],
        worker="solver-0",
    )
    fields.update(overrides)
    return JobResult(**fields)


@pytest.fixture(scope="module")
def solved(tiny_problem, fast_options):
    """A real solved record: a floorplan, metrics and solver stages."""
    result = execute_job(SolveJob(tiny_problem, mode="O", options=fast_options))
    assert result.floorplan is not None and result.stages
    return result


def records(solved):
    return {
        "solved": solved,
        "hand-made": record(),
        "nan-objective": record(status="error", feasible=False, objective=float("nan"),
                                metrics=None, floorplan=None, stages=None,
                                error="HOSeedError: no seed"),
        "no-floorplan": record(floorplan=None),
        "degraded": record(status="time_limit", degraded=True),
        "stored-as-cached": record(cached=True),
    }


class TestEncoder:
    def test_hit_and_miss_bodies_match_the_deep_copy_encoding(self, solved):
        for name, result in records(solved).items():
            assert hit_body(result) == reference_body(result, True), name
            for cached in (False, True):
                assert result_body(result, cached) == reference_body(result, cached), name

    def test_top_level_changes_to_as_dict_leave_the_record_alone(self, solved):
        for name, result in records(solved).items():
            before = reference_body(result, True)
            data = result.as_dict()
            data["cached"] = not result.cached
            data["objective"] = None
            data["schema_version"] = 99
            for key in ("floorplan", "metrics", "stages"):
                data[key] = None
            assert "schema_version" not in vars(result), name
            assert reference_body(result, True) == before, name
            assert hit_body(result) == before, name


class TestCacheEntryBody:
    def test_body_is_encoded_once_per_entry(self):
        cache = SolveCache()
        result = record()
        cache.put(result)
        calls = []

        def counting(r):
            calls.append(r)
            return hit_body(r)

        first = cache.hit_body(cache.get(FP), counting)
        second = cache.hit_body(cache.get(FP), counting)
        assert first == second == reference_body(result, True)
        assert len(calls) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 0

    def test_put_over_a_fingerprint_serves_the_new_body(self):
        cache = SolveCache()
        cache.put(record(objective=1.0))
        old = cache.hit_body(cache.get(FP), hit_body)
        fresh = record(objective=2.0, worker="solver-1")
        cache.put(fresh)
        new = cache.hit_body(cache.get(FP), hit_body)
        assert new != old
        assert new == reference_body(fresh, True)

    def test_evicted_then_re_stored_entry_serves_no_stale_body(self):
        cache = SolveCache(capacity=1)
        cache.put(record(objective=1.0))
        cache.hit_body(cache.get(FP), hit_body)
        cache.put(record(fingerprint="d" * 64))
        assert cache.get_memory(FP) is None and cache.stats.evictions == 1
        fresh = record(objective=3.0)
        cache.put(fresh)
        assert cache.hit_body(cache.get(FP), hit_body) == reference_body(fresh, True)

    def test_a_record_replaced_after_its_lookup_stores_no_body(self):
        cache = SolveCache()
        looked_up = record(objective=1.0)
        cache.put(looked_up)
        assert cache.get(FP) is looked_up
        fresh = record(objective=2.0)
        cache.put(fresh)
        assert cache.hit_body(looked_up, hit_body) == reference_body(looked_up, True)
        assert cache.hit_body(cache.get(FP), hit_body) == reference_body(fresh, True)

    def test_disk_promoted_entry_serves_the_memory_stored_bytes(self, tmp_path, solved):
        for name, result in records(solved).items():
            cache = SolveCache(tmp_path / name)
            cache.put(result)
            in_memory = cache.hit_body(cache.get(result.fingerprint), hit_body)
            cache.drop_memory()
            promoted = cache.get(result.fingerprint)
            assert promoted is not None and promoted is not result, name
            assert cache.hit_body(promoted, hit_body) == in_memory, name
            assert in_memory == reference_body(result, True), name


def raw_solve(port: int, payloads):
    """POST each payload on one connection; ``(status, headers, raw body)`` each."""

    async def scenario():
        reader, writer = await open_connection("127.0.0.1", port)
        try:
            answers = []
            for payload in payloads:
                body = json.dumps(payload).encode("utf-8")
                answers.append(await round_trip(
                    reader, writer, "POST", "/solve", f"127.0.0.1:{port}", body
                ))
            return answers
        finally:
            writer.close()

    return asyncio.run(scenario())


class TestGatewayHitBody:
    @pytest.fixture(scope="class")
    def payloads(self):
        return demo_payloads(unique=2, time_limit=20.0)

    def gateway(self, capacity=None):
        cache = SolveCache(capacity=capacity) if capacity else SolveCache()
        pool = StubWorkerPool(cache)
        return BackgroundGateway(GatewayConfig(port=0), cache=cache, worker_pool=pool)

    def test_hit_is_json_and_equals_the_miss_but_for_the_cached_flags(self, payloads):
        with self.gateway() as gw:
            (miss, hit) = raw_solve(gw.port, [payloads[0]] * 2)
        for status, headers, _body in (miss, hit):
            assert status == 200
            assert headers["content-type"] == "application/json"
            assert "x-repro-queue-depth" in headers and "x-repro-trace" in headers
        assert miss[1]["x-repro-trace"] != hit[1]["x-repro-trace"]
        answer = json.loads(miss[2])
        assert answer["cached"] is False and answer["result"]["cached"] is False
        answer["cached"] = answer["result"]["cached"] = True
        assert hit[2] == json.dumps(answer).encode("utf-8")

    def test_a_put_over_a_served_entry_changes_the_hit(self, payloads):
        fingerprint = job_from_dict(payloads[0]).fingerprint
        with self.gateway() as gw:
            (_miss, before) = raw_solve(gw.port, [payloads[0]] * 2)
            replaced = dataclasses.replace(
                gw.gateway.cache.get(fingerprint), objective=99.0, worker="elsewhere"
            )
            gw.gateway.cache.put(replaced)
            ((status, _headers, after),) = raw_solve(gw.port, [payloads[0]])
        assert status == 200 and after != before[2]
        assert after == reference_body(replaced, True)

    def test_capacity_one_never_serves_an_evicted_body(self, payloads):
        first, second = (job_from_dict(p).fingerprint for p in payloads)
        with self.gateway(capacity=1) as gw:
            cache = gw.gateway.cache
            raw_solve(gw.port, [payloads[0], payloads[0], payloads[1]])
            assert cache.get_memory(first) is None and cache.stats.evictions >= 1
            stored = dataclasses.replace(cache.get(second), fingerprint=first, objective=7.0)
            cache.put(stored)
            ((status, _headers, body),) = raw_solve(gw.port, [payloads[0]])
        assert status == 200
        assert body == reference_body(stored, True)
