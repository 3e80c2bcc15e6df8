"""Gateway observability: counters, gauges and latency histograms.

Latencies are recorded into fixed log-spaced buckets (deterministic, O(1)
memory, thread-safe under the GIL), with quantiles read back by linear
interpolation within the covering bucket, clamped to the observed
``[min, max]`` — the standard Prometheus-histogram trade-off at ~±25%
worst-case bucket resolution.

The snapshot feeds three consumers: the ``/metrics`` endpoint (flat JSON),
the :mod:`repro.analysis` tables (``SERVER_COUNTER_HEADERS`` two-column table
plus the shared ``SIM_LATENCY_HEADERS`` percentile table), and the fleet
router's ``/metrics`` roll-up, which merges the raw bucket counts.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = ["LatencyHistogram", "GatewayMetrics", "merge_raw_histograms"]


def _default_bounds() -> List[float]:
    # 100 us .. ~1100 s in x1.5 steps: covers inline cache hits through
    # multi-minute MILP solves with ≤ 50% (upper-bound) quantile error
    bounds = []
    edge = 1e-4
    for _ in range(40):
        bounds.append(edge)
        edge *= 1.5
    return bounds


class LatencyHistogram:
    """Fixed-bucket latency histogram with bucket-resolution quantiles."""

    def __init__(self, bounds: Optional[List[float]] = None) -> None:
        self.bounds = list(bounds) if bounds is not None else _default_bounds()
        if sorted(self.bounds) != self.bounds or len(set(self.bounds)) != len(self.bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one sample."""
        seconds = max(0.0, float(seconds))
        index = self._bucket_index(seconds)
        self.counts[index] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def _bucket_index(self, seconds: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= sample
            mid = (lo + hi) // 2
            if self.bounds[mid] >= seconds:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """The ``fraction`` quantile, linearly interpolated within its bucket.

        The nearest-rank sample's bucket is located, then the rank's position
        inside that bucket interpolates between the bucket's lower and upper
        edges — so a rank at the bottom of a bucket no longer reports the
        bucket's *upper* bound (the old boundary behaviour, a full bucket of
        over-report).  The result is clamped to the observed ``[min, max]``:
        interpolation can never report below the smallest or above the
        largest sample actually seen.  The overflow bucket reports the exact
        observed maximum.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.5))  # nearest-rank
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            previous = seen
            seen += bucket_count
            if seen >= rank:
                if index >= len(self.bounds):
                    return self.max
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                position = (rank - previous) / bucket_count
                value = lower + (upper - lower) * position
                return min(max(value, self.min), self.max)
        return self.max

    def summary(self) -> Dict[str, float]:
        """The ``{count, mean, p50, p90, p99, max}`` dict the analysis
        latency table (:func:`repro.analysis.report.sim_latency_rows`) renders."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "max": self.max,
        }

    # ------------------------------------------------------------------
    # machine-readable form: ``/metrics?format=json`` and fleet roll-ups
    # ------------------------------------------------------------------
    def raw(self) -> Dict[str, object]:
        """Exact bucket state, JSON-safe (``min`` is ``None`` while empty).

        This is what ``/metrics?format=json`` serves and what
        :func:`merge_raw_histograms` consumes: identical-bounds histograms
        from N replicas merge losslessly by summing bucket counts, which the
        rendered percentile tables cannot do.
        """
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max,
        }

    @classmethod
    def from_raw(cls, data: Mapping[str, object]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`raw` output (validated)."""
        histogram = cls(bounds=[float(b) for b in data["bounds"]])
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"counts length {len(counts)} does not match "
                f"{len(histogram.bounds)} bounds (+1 overflow)"
            )
        if any(c < 0 for c in counts):
            raise ValueError("bucket counts must be non-negative")
        histogram.counts = counts
        histogram.count = int(data["count"])
        if histogram.count != sum(counts):
            raise ValueError("count does not equal the bucket-count sum")
        histogram.total = float(data["total"])
        histogram.max = float(data["max"])
        minimum = data.get("min")
        histogram.min = float("inf") if minimum is None else float(minimum)
        return histogram

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another identical-bounds histogram into this one, in place."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


def merge_raw_histograms(raws: Iterable[Mapping[str, object]]) -> LatencyHistogram:
    """Merge :meth:`LatencyHistogram.raw` snapshots from N replicas into one.

    The fleet router's ``/metrics`` roll-up uses this to serve fleet-wide
    latency percentiles: summing bucket counts is exact, whereas averaging
    the replicas' rendered p99s would be meaningless.

    Snapshots whose bucket bounds differ from the first snapshot's are
    refused with a :class:`ValueError` naming the offending snapshot —
    summing counts across mismatched bucket layouts would silently produce
    garbage percentiles (e.g. when replicas run mixed code versions).
    """
    merged: Optional[LatencyHistogram] = None
    for index, raw in enumerate(raws):
        histogram = LatencyHistogram.from_raw(raw)
        if merged is None:
            merged = histogram
        elif histogram.bounds != merged.bounds:
            raise ValueError(
                f"histogram snapshot #{index} has different bounds "
                f"({len(histogram.bounds)} buckets, first edge "
                f"{histogram.bounds[0] if histogram.bounds else 'none'}) than "
                f"snapshot #0 ({len(merged.bounds)} buckets) — refusing to "
                "merge mismatched bucket layouts"
            )
        else:
            merged.merge(histogram)
    return merged if merged is not None else LatencyHistogram()


@dataclasses.dataclass
class GatewayMetrics:
    """All counters and histograms of one gateway instance."""

    received: int = 0  # POST /solve requests accepted off the wire
    ok: int = 0  # 200 responses
    bad_requests: int = 0  # 400 undecodable bodies
    decode_memo_hits: int = 0  # bodies keyed from the decode memo, not parsed
    shed_rate_limited: int = 0  # 429 per-client token bucket
    shed_queue_full: int = 0  # 429 bounded-queue load shedding
    rejected_draining: int = 0  # 503 during graceful drain
    solve_errors: int = 0  # 500 job executed but failed
    cache_hits: int = 0  # answered inline from the solve cache
    cache_misses: int = 0  # routed into the micro-batcher
    batches: int = 0  # solves answered, each one batch of its waiters
    batched_jobs: int = 0  # waiters those solves answered, joiners included
    deduped_jobs: int = 0  # waiters a solve answered beyond its first
    deadline_expired: int = 0  # 504s: the client budget ran out before a result
    degraded: int = 0  # clamped solves short of optimal: 200 with a plan, else 503
    seed_failures: int = 0  # 503s for HO jobs whose heuristic seed failed

    def __post_init__(self) -> None:
        self.started_monotonic = time.monotonic()
        self.latency_total = LatencyHistogram()
        self.latency_hit = LatencyHistogram()
        self.latency_miss = LatencyHistogram()
        self.batch_sizes = LatencyHistogram(bounds=[float(2**i) for i in range(11)])

    # ------------------------------------------------------------------
    def observe_hit(self, seconds: float) -> None:
        self.cache_hits += 1
        self.ok += 1
        self.latency_total.observe(seconds)
        self.latency_hit.observe(seconds)

    def observe_solved(self, seconds: float, error: bool = False) -> None:
        if error:
            self.solve_errors += 1
        else:
            self.ok += 1
        self.latency_total.observe(seconds)
        self.latency_miss.observe(seconds)

    def observe_batch(self, size: int) -> None:
        """One solve, answering ``size`` waiters of one job (those that joined
        it while it ran included)."""
        self.batches += 1
        self.batched_jobs += size
        self.deduped_jobs += size - 1
        self.batch_sizes.observe(float(size))

    # ------------------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    @property
    def shed(self) -> int:
        """Requests refused by admission control (both 429 flavours)."""
        return self.shed_rate_limited + self.shed_queue_full

    @property
    def shed_rate(self) -> float:
        """Fraction of received solve requests refused with a 429."""
        return self.shed / self.received if self.received else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of admitted solve requests answered inline from cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_jobs / self.batches if self.batches else 0.0

    # ------------------------------------------------------------------
    def counters(self, queue_depth: int = 0) -> Dict[str, object]:
        """Flat counter/gauge dict (the ``/metrics`` counters block)."""
        return {
            "uptime_s": round(self.uptime_s, 3),
            "queue_depth": queue_depth,
            "received": self.received,
            "ok": self.ok,
            "bad_requests": self.bad_requests,
            "decode_memo_hits": self.decode_memo_hits,
            "shed_rate_limited": self.shed_rate_limited,
            "shed_queue_full": self.shed_queue_full,
            "shed_rate": round(self.shed_rate, 6),
            "rejected_draining": self.rejected_draining,
            "solve_errors": self.solve_errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": round(self.hit_rate, 6),
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "deduped_jobs": self.deduped_jobs,
            "mean_batch_size": round(self.mean_batch_size, 3),
            # always 0: perfbench/layers.py reads this key; ROADMAP item 6 deletes it
            "flight_waits": 0,
            "deadline_expired": self.deadline_expired,
            "degraded": self.degraded,
            "seed_failures": self.seed_failures,
        }

    def latency_summaries(self) -> Dict[str, Dict[str, float]]:
        """Named latency summaries for the shared percentile table."""
        return {
            "request": self.latency_total.summary(),
            "cache_hit": self.latency_hit.summary(),
            "solve_miss": self.latency_miss.summary(),
        }

    def histograms(self) -> Dict[str, Dict[str, object]]:
        """Raw bucket state of every histogram (the mergeable form)."""
        return {
            "request": self.latency_total.raw(),
            "cache_hit": self.latency_hit.raw(),
            "solve_miss": self.latency_miss.raw(),
            "batch_size": self.batch_sizes.raw(),
        }

    def snapshot(
        self,
        queue_depth: int = 0,
        cache_stats: Optional[Mapping] = None,
        raw: bool = False,
    ) -> Dict:
        """Everything ``/metrics`` serves, as one JSON-ready dict.

        ``raw=True`` (the ``?format=json`` form) additionally carries the
        exact histogram bucket counts so fleet roll-ups and load generators
        can merge and re-quantile them instead of scraping rendered tables.
        """
        snapshot = {
            "counters": self.counters(queue_depth),
            "latency": self.latency_summaries(),
            "cache": dict(cache_stats) if cache_stats is not None else {},
        }
        if raw:
            snapshot["histograms"] = self.histograms()
        return snapshot
