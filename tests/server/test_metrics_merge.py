"""Mergeable histogram snapshots and the machine-readable /metrics form."""

import asyncio

import pytest

from repro.server.gateway import BackgroundGateway, GatewayConfig
from repro.server.loadgen import GatewayClient
from repro.server.metrics import LatencyHistogram, merge_raw_histograms


def filled(samples, bounds=None) -> LatencyHistogram:
    histogram = LatencyHistogram(bounds=bounds)
    for sample in samples:
        histogram.observe(sample)
    return histogram


class TestRawRoundTrip:
    def test_round_trip_preserves_everything(self):
        original = filled([0.001, 0.01, 0.01, 2.5])
        rebuilt = LatencyHistogram.from_raw(original.raw())
        assert rebuilt.bounds == original.bounds
        assert rebuilt.counts == original.counts
        assert rebuilt.count == 4
        assert rebuilt.total == pytest.approx(original.total)
        assert rebuilt.min == pytest.approx(0.001)
        assert rebuilt.max == pytest.approx(2.5)
        assert rebuilt.summary() == original.summary()

    def test_empty_round_trip(self):
        raw = LatencyHistogram().raw()
        assert raw["min"] is None  # inf is not JSON-safe
        rebuilt = LatencyHistogram.from_raw(raw)
        assert rebuilt.count == 0
        assert rebuilt.min == float("inf")

    def test_raw_survives_json(self):
        import json

        raw = filled([0.05, 0.5]).raw()
        assert LatencyHistogram.from_raw(json.loads(json.dumps(raw))).count == 2


class TestFromRawValidation:
    def test_counts_length_must_match_bounds(self):
        raw = filled([0.1]).raw()
        raw["counts"] = raw["counts"][:-2]
        with pytest.raises(ValueError, match="counts length"):
            LatencyHistogram.from_raw(raw)

    def test_negative_counts_rejected(self):
        raw = filled([0.1]).raw()
        raw["counts"][0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            LatencyHistogram.from_raw(raw)

    def test_count_must_equal_bucket_sum(self):
        raw = filled([0.1, 0.2]).raw()
        raw["count"] = 7
        with pytest.raises(ValueError, match="bucket-count sum"):
            LatencyHistogram.from_raw(raw)


class TestMerge:
    def test_merge_sums_buckets_and_tracks_extrema(self):
        left = filled([0.001, 0.1])
        right = filled([0.1, 9.0])
        left.merge(right)
        assert left.count == 4
        assert left.min == pytest.approx(0.001)
        assert left.max == pytest.approx(9.0)
        assert left.total == pytest.approx(0.001 + 0.1 + 0.1 + 9.0)

    def test_merged_quantiles_match_a_single_histogram(self):
        # merging N shards is exact: same buckets as observing everything
        # in one histogram
        samples = [0.001 * (i + 1) for i in range(100)]
        combined = filled(samples)
        shard_a = filled(samples[:50])
        shard_b = filled(samples[50:])
        shard_a.merge(shard_b)
        assert shard_a.counts == combined.counts
        for q in (0.5, 0.9, 0.99):
            assert shard_a.quantile(q) == combined.quantile(q)

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError, match="different bounds"):
            filled([0.1]).merge(filled([0.1], bounds=[1.0, 2.0]))

    def test_merge_raw_histograms(self):
        raws = [filled([0.01]).raw(), filled([0.1]).raw(), filled([1.0]).raw()]
        merged = merge_raw_histograms(raws)
        assert merged.count == 3
        assert merged.max == pytest.approx(1.0)

    def test_merge_raw_histograms_of_nothing_is_empty(self):
        assert merge_raw_histograms([]).count == 0


class TestMetricsJsonEndpoint:
    def test_format_json_serves_raw_histograms(self):
        from repro.server.loadgen import demo_payloads

        payload = demo_payloads(unique=1, time_limit=20.0)[0]
        config = GatewayConfig(port=0, shards=1, batch_workers=1)
        with BackgroundGateway(config) as gw:
            async def scenario():
                async with GatewayClient(gw.host, gw.port) as client:
                    await client.solve(payload)
                    await client.solve(payload)  # one miss + one hit
                    _status, formatted = await client.metrics()
                    status, machine = await client.request(
                        "GET", "/metrics?format=json"
                    )
                    return formatted, status, machine

            formatted, status, machine = asyncio.run(scenario())
        assert status == 200
        assert "tables" in formatted and "histograms" not in formatted
        assert "histograms" in machine and "tables" not in machine
        histograms = machine["histograms"]
        assert set(histograms) == {"request", "cache_hit", "solve_miss", "batch_size"}
        assert histograms["request"]["count"] == 2
        assert histograms["cache_hit"]["count"] == 1
        assert histograms["solve_miss"]["count"] == 1
        # the raw form is exactly what the fleet roll-up merges
        merged = merge_raw_histograms(
            [histograms["request"], histograms["request"]]
        )
        assert merged.count == 4
