"""Property tests: vectorized traffic generation vs. per-event references.

The vectorized generators must be drop-in replacements for the per-event
loops they replaced.  For homogeneous Poisson gap-sampling the batched numpy
path consumes the exact same seeded draws in the same order, so the request
streams are *identical*; for the inversion/order-statistics paths
(homogeneous inversion, inhomogeneous IPPP inversion, per-phase MMPP
regeneration) the draws differ but the distribution must not, which a
fixed-seed two-sample Kolmogorov–Smirnov check and per-window counts pin.
The per-event references live in :mod:`tests.sim.traffic_oracles`.
"""

import numpy as np
import pytest

from repro.sim import (
    InhomogeneousPoissonTraffic,
    MMPPTraffic,
    PoissonTraffic,
    poisson_times,
    sinusoidal_rate,
)
from repro.utils.rng import make_rng
from tests.sim.traffic_oracles import (
    mmpp_reference,
    poisson_reference,
    thinning_reference,
)

REGIONS = ["A", "B", "C"]


def ks_statistic(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov–Smirnov D statistic (no scipy dependency)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int, m: int, alpha_coefficient: float = 1.63) -> float:
    """Critical value c(α)·sqrt((n+m)/(n·m)); 1.63 ≈ α = 0.01."""
    return alpha_coefficient * ((n + m) / (n * m)) ** 0.5


class TestHomogeneousPoissonIdenticalStreams:
    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    def test_vectorized_equals_per_event_stream(self, seed):
        traffic = PoissonTraffic(REGIONS, rate=8.0, modes_per_region=4, seed=seed)
        assert traffic.generate(60.0) == poisson_reference(traffic, 60.0)

    def test_single_region_single_mode(self):
        traffic = PoissonTraffic(["only"], rate=2.0, modes_per_region=1, seed=3)
        assert traffic.generate(25.0) == poisson_reference(traffic, 25.0)

    def test_fault_poisson_times_match_scalar_loop(self):
        # poisson_times feeds RandomFaults and the chaos planner: the batched
        # generator must reproduce the scalar gap loop draw for draw
        for seed in (0, 5, 99):
            rng = make_rng(seed)
            expected = []
            time = float(rng.exponential(1.0 / 3.0))
            while time < 40.0:
                expected.append(time)
                time += float(rng.exponential(1.0 / 3.0))
            assert poisson_times(3.0, 40.0, seed=seed) == expected

    def test_inversion_method_distribution(self):
        # inversion draws a different stream but the same law: compare its
        # arrival times against gap-sampling KS-style at a fixed seed
        gap = PoissonTraffic(REGIONS, rate=10.0, seed=11).generate(300.0)
        inv = PoissonTraffic(REGIONS, rate=10.0, seed=11, method="inversion").generate(300.0)
        times_gap = [request.time for request in gap]
        times_inv = [request.time for request in inv]
        assert ks_statistic(times_gap, times_inv) < ks_threshold(
            len(times_gap), len(times_inv)
        )
        # counts agree within Poisson noise (±4 sigma around rate*T = 3000)
        assert abs(len(gap) - len(inv)) < 8 * (3000**0.5)

    def test_inversion_sorted_and_reproducible(self):
        traffic = PoissonTraffic(REGIONS, rate=5.0, seed=2, method="inversion")
        a, b = traffic.generate(50.0), traffic.generate(50.0)
        assert a == b
        times = [request.time for request in a]
        assert times == sorted(times)
        assert all(0.0 <= time < 50.0 for time in times)


class TestInhomogeneousPoissonDistribution:
    HORIZON = 240.0

    def _pair(self, seed):
        rate = sinusoidal_rate(base=6.0, amplitude=4.0, period=60.0)
        traffic = InhomogeneousPoissonTraffic(REGIONS, rate, rate_max=10.0, seed=seed)
        return traffic.generate(self.HORIZON), thinning_reference(traffic, self.HORIZON)

    def test_ks_against_thinning_reference(self):
        inversion, thinning = self._pair(seed=5)
        times_inv = [request.time for request in inversion]
        times_thin = [request.time for request in thinning]
        assert ks_statistic(times_inv, times_thin) < ks_threshold(
            len(times_inv), len(times_thin)
        )

    def test_window_counts_track_reference(self):
        inversion, thinning = self._pair(seed=9)
        edges = np.linspace(0.0, self.HORIZON, 9)  # 8 windows of 30 s
        counts_inv, _ = np.histogram([r.time for r in inversion], bins=edges)
        counts_thin, _ = np.histogram([r.time for r in thinning], bins=edges)
        for inv, thin in zip(counts_inv, counts_thin):
            # each window holds ~180 expected arrivals; allow 4-sigma noise
            assert abs(int(inv) - int(thin)) < 4 * max(inv, thin, 1) ** 0.5

    def test_inversion_validates_rate_bounds(self):
        traffic = InhomogeneousPoissonTraffic(
            REGIONS, rate_fn=lambda t: 100.0, rate_max=1.0, seed=0
        )
        with pytest.raises(ValueError):
            traffic.generate(10.0)


class TestMMPPDistribution:
    def test_phase_boundaries_shared_with_reference(self):
        traffic = MMPPTraffic(REGIONS, rates=(2.0, 20.0), mean_sojourns=(8.0, 2.0), seed=6)
        segments = traffic.phase_segments(100.0)
        assert segments[0][0] == 0.0
        assert segments[-1][1] == 100.0
        for (_, end, state), (start, _, next_state) in zip(segments, segments[1:]):
            assert start == end
            assert next_state == 1 - state

    def test_ks_against_per_event_reference(self):
        traffic = MMPPTraffic(
            REGIONS, rates=(3.0, 30.0), mean_sojourns=(10.0, 3.0), seed=4
        )
        vectorized = [r.time for r in traffic.generate(300.0)]
        reference = [r.time for r in mmpp_reference(traffic, 300.0)]
        assert ks_statistic(vectorized, reference) < ks_threshold(
            len(vectorized), len(reference)
        )

    def test_per_phase_counts_match_reference_within_noise(self):
        traffic = MMPPTraffic(
            REGIONS, rates=(2.0, 25.0), mean_sojourns=(12.0, 4.0), seed=8
        )
        vectorized = np.array([r.time for r in traffic.generate(200.0)])
        reference = np.array([r.time for r in mmpp_reference(traffic, 200.0)])
        for start, end, state in traffic.phase_segments(200.0):
            expected = traffic.rates[state] * (end - start)
            got_vec = int(np.sum((vectorized >= start) & (vectorized < end)))
            got_ref = int(np.sum((reference >= start) & (reference < end)))
            slack = 5 * max(expected, 1.0) ** 0.5 + 1
            assert abs(got_vec - expected) < slack
            assert abs(got_ref - expected) < slack

    def test_vectorized_sorted_within_horizon(self):
        traffic = MMPPTraffic(REGIONS, seed=1)
        requests = traffic.generate(150.0)
        times = [request.time for request in requests]
        assert times == sorted(times)
        assert all(0.0 <= time < 150.0 for time in times)
