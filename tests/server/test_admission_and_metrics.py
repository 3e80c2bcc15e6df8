"""Deterministic admission-control and metrics-machinery tests."""

import pytest

from repro.analysis.report import server_counter_rows, sim_latency_rows
from repro.server.admission import AdmissionController, TokenBucket
from repro.server.metrics import GatewayMetrics, LatencyHistogram


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert all(bucket.try_acquire(0.0) for _ in range(3))  # burst drains
        assert not bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.4)  # 0.8 tokens: still short
        assert bucket.try_acquire(0.5)  # 1.0 token refilled
        assert not bucket.try_acquire(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(0.0)
        # a long idle stretch refills to burst, not beyond
        assert bucket.try_acquire(100.0)
        assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(100.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def test_rate_limit_is_per_client(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate_limit=1.0, rate_burst=1.0, clock=clock, max_queue_depth=None
        )
        assert controller.check_rate("alice").admitted
        assert not controller.check_rate("alice").admitted  # alice's bucket is dry
        assert controller.check_rate("bob").admitted  # bob has his own bucket
        clock.advance(1.0)
        assert controller.check_rate("alice").admitted  # refilled

    def test_rate_limit_disabled_by_default(self):
        controller = AdmissionController()
        assert all(controller.check_rate("c").admitted for _ in range(1000))

    def test_queue_bound(self):
        controller = AdmissionController(max_queue_depth=2)
        assert controller.check_queue(0).admitted
        assert controller.check_queue(1).admitted
        decision = controller.check_queue(2)
        assert not decision.admitted and decision.reason == "queue_full"

    def test_unbounded_queue(self):
        controller = AdmissionController(max_queue_depth=None)
        assert controller.check_queue(10**9).admitted

    def test_client_table_is_bounded(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate_limit=1.0, clock=clock, max_clients=8, max_queue_depth=None
        )
        for index in range(100):
            clock.advance(0.01)  # distinct staleness per bucket
            controller.check_rate(f"client-{index}")
        assert controller.tracked_clients <= 8


class TestLatencyHistogram:
    def test_quantiles_never_under_report(self):
        histogram = LatencyHistogram()
        samples = [0.001, 0.002, 0.003, 0.010, 0.100]
        for sample in samples:
            histogram.observe(sample)
        assert histogram.count == 5
        assert histogram.quantile(0.5) >= 0.003
        assert histogram.quantile(1.0) == pytest.approx(0.1)
        assert histogram.min == pytest.approx(0.001)
        assert histogram.mean == pytest.approx(sum(samples) / 5)

    def test_quantile_within_bucket_resolution(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.observe(0.02)
        # every sample is 20 ms; one log-bucket of slack is ±50%
        assert 0.02 <= histogram.quantile(0.99) <= 0.03

    def test_identical_samples_report_exactly(self):
        # clamping to the observed [min, max] collapses interpolation to the
        # true value when every sample is identical — the old boundary
        # behaviour reported the bucket's upper edge (a full bucket high)
        histogram = LatencyHistogram()
        for _ in range(50):
            histogram.observe(0.02)
        for fraction in (0.01, 0.5, 0.99, 1.0):
            assert histogram.quantile(fraction) == pytest.approx(0.02)

    def test_interpolation_inside_a_wide_bucket(self):
        histogram = LatencyHistogram(bounds=[10.0])
        for sample in range(1, 10):  # 1..9, all in the (0, 10] bucket
            histogram.observe(float(sample))
        # rank 5 of 9 interpolates to 10 * 5/9 ≈ 5.6 — near the true median,
        # not the bucket's upper edge
        median = histogram.quantile(0.5)
        assert 4.0 <= median <= 7.0
        # and never outside the observed extremes
        assert histogram.quantile(0.0) >= 1.0
        assert histogram.quantile(1.0) <= 9.0

    def test_overflow_bucket_reports_observed_max(self):
        histogram = LatencyHistogram(bounds=[1.0])
        histogram.observe(0.5)
        histogram.observe(42.0)  # overflow bucket
        assert histogram.quantile(1.0) == pytest.approx(42.0)

    def test_empty_summary(self):
        assert LatencyHistogram().summary() == {"count": 0}

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)


class TestGatewayMetrics:
    def test_lifecycle_counters(self):
        metrics = GatewayMetrics()
        metrics.received += 3
        metrics.observe_hit(0.001)
        metrics.cache_misses += 2
        metrics.observe_batch(size=2)
        metrics.observe_solved(0.5)
        metrics.observe_solved(0.6, error=True)
        assert metrics.hit_rate == pytest.approx(1 / 3)
        assert metrics.mean_batch_size == 2.0
        assert metrics.deduped_jobs == 1
        counters = metrics.counters(queue_depth=4)
        assert counters["queue_depth"] == 4
        assert counters["ok"] == 2 and counters["solve_errors"] == 1

    def test_shed_rate(self):
        metrics = GatewayMetrics()
        metrics.received = 10
        metrics.shed_rate_limited = 2
        metrics.shed_queue_full = 3
        assert metrics.shed == 5
        assert metrics.shed_rate == pytest.approx(0.5)

    def test_snapshot_feeds_analysis_tables(self):
        metrics = GatewayMetrics()
        metrics.received = 1
        metrics.observe_hit(0.002)
        snapshot = metrics.snapshot(queue_depth=0, cache_stats={"hits": 1})
        counter_rows = server_counter_rows(snapshot["counters"])
        assert ["received", 1] in counter_rows
        latency_rows = sim_latency_rows(snapshot["latency"])
        by_metric = {row[0]: row for row in latency_rows}
        assert by_metric["request"][1] == 1  # count column
        assert by_metric["solve_miss"][2] == "-"  # no miss samples yet
