"""Simulation statistics: latency, utilization, blocking.

Per-request records accumulate into :class:`SimStats`, which computes
percentile summaries (nearest-rank, so two identical runs format to
byte-identical tables), busy-period utilization and blocking probabilities,
and renders them through the :mod:`repro.analysis` table helpers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.report import (
    SIM_LATENCY_HEADERS,
    SIM_UTILIZATION_HEADERS,
    format_table,
    sim_latency_rows,
    sim_utilization_rows,
)

PERCENTILES = (50, 90, 99)


class RequestRecord(NamedTuple):
    """The lifecycle of one mode-activation request.

    ``arrival <= start <= finish``; ``ok`` is false for requests the policy
    could not serve (blocked by faults, missing free areas, queue overflow).
    An immutable named tuple: a fleet simulation builds one per served
    request, and a tuple builds in about a third of a frozen dataclass's time.
    """

    request_id: int
    region: str
    mode: str
    arrival: float
    start: float
    finish: float
    action: str
    frames: int
    ok: bool
    detail: str = ""

    @property
    def latency(self) -> float:
        """Arrival-to-finish sojourn time."""
        return self.finish - self.arrival

    @property
    def wait(self) -> float:
        """Time spent queued before service started."""
        return self.start - self.arrival

    @property
    def service(self) -> float:
        """Time spent in service (reconfiguration port occupancy)."""
        return self.finish - self.start


def percentile(values: Sequence[float], pct: float, presorted: bool = False) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``presorted=True`` skips the sort so callers summarizing several
    percentiles of one sample (p50/p90/p99) can sort once and share.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = values if presorted else sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Count, mean, max and :data:`PERCENTILES` of one sample."""
    summary: Dict[str, float] = {"count": len(values)}
    if values:
        ordered = sorted(values)  # one sort shared across every percentile
        summary["mean"] = sum(ordered) / len(ordered)
        summary["max"] = ordered[-1]
        for pct in PERCENTILES:
            summary[f"p{pct}"] = percentile(ordered, pct, presorted=True)
    return summary


def histogram(
    values: Sequence[float], bins: int = 10, upper: Optional[float] = None
) -> List[Tuple[float, float, int]]:
    """Fixed-width histogram as ``(lo, hi, count)`` triples.

    ``upper`` defaults to the max value; values at the upper edge land in the
    last bin.
    """
    if bins <= 0:
        raise ValueError("bins must be positive")
    if not values:
        return []
    top = float(upper if upper is not None else max(values))
    top = max(top, 1e-12)
    width = top / bins
    counts = [0] * bins
    for value in values:
        index = min(int(value / width), bins - 1)
        counts[index] += 1
    return [(i * width, (i + 1) * width, counts[i]) for i in range(bins)]


class SimStats:
    """Accumulates request records and exposes summary tables."""

    def __init__(self) -> None:
        self.records: List[RequestRecord] = []
        self.fault_times: List[float] = []
        self.rejected_arrivals = 0  # dropped before queueing (queue overflow)

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def record(self, record: RequestRecord) -> None:
        self.records.append(record)

    def record_fault(self, time: float) -> None:
        self.fault_times.append(time)

    def record_rejected_arrival(self) -> None:
        self.rejected_arrivals += 1

    def merge(self, other: "SimStats") -> None:
        """Fold another run's records into this one (fleet roll-up).

        Records keep their original request ids; summaries, percentiles and
        blocking probabilities are computed over the union, which is what a
        fleet-level SLO check needs.
        """
        self.records.extend(other.records)
        self.fault_times.extend(other.fault_times)
        self.rejected_arrivals += other.rejected_arrivals

    @classmethod
    def merged(cls, parts: Sequence["SimStats"]) -> "SimStats":
        """A new :class:`SimStats` holding every record of ``parts``."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def served(self) -> List[RequestRecord]:
        """Requests the policy completed successfully."""
        return [record for record in self.records if record.ok]

    @property
    def blocked(self) -> List[RequestRecord]:
        """Requests the policy could not serve."""
        return [record for record in self.records if not record.ok]

    @property
    def blocking_probability(self) -> float:
        """Fraction of offered requests that were blocked or dropped."""
        offered = len(self.records) + self.rejected_arrivals
        if offered == 0:
            return 0.0
        return (len(self.blocked) + self.rejected_arrivals) / offered

    def actions(self) -> Dict[str, int]:
        """Completed-request counts per policy action label."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.action] = counts.get(record.action, 0) + 1
        return dict(sorted(counts.items()))

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """Percentile summaries of latency / wait / service over served requests."""
        served = self.served
        return {
            "latency": summarize([record.latency for record in served]),
            "wait": summarize([record.wait for record in served]),
            "service": summarize([record.service for record in served]),
        }

    # ------------------------------------------------------------------
    # utilization
    # ------------------------------------------------------------------
    def port_busy_time(self) -> float:
        """Total reconfiguration-port occupancy across all requests."""
        return sum(record.service for record in self.records)

    def port_utilization(self, num_ports: int, makespan: float) -> float:
        """Fraction of total port-seconds spent serving requests."""
        if num_ports <= 0:
            raise ValueError("num_ports must be positive")
        if makespan <= 0:
            return 0.0
        return self.port_busy_time() / (num_ports * makespan)

    def region_busy_times(self) -> Dict[str, float]:
        """Per-region reconfiguration busy time (sum of service periods)."""
        busy: Dict[str, float] = {}
        for record in self.records:
            busy[record.region] = busy.get(record.region, 0.0) + record.service
        return dict(sorted(busy.items()))

    def region_counts(self) -> Dict[str, Tuple[int, int]]:
        """Per-region ``(served, blocked)`` counts."""
        counts: Dict[str, List[int]] = {}
        for record in self.records:
            entry = counts.setdefault(record.region, [0, 0])
            entry[0 if record.ok else 1] += 1
        return {region: tuple(entry) for region, entry in sorted(counts.items())}

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def latency_rows(self) -> List[List[object]]:
        """Rows for the latency-percentile table."""
        return sim_latency_rows(self.latency_summary())

    def utilization_rows(
        self, num_ports: int, makespan: float
    ) -> List[List[object]]:
        """Rows for the utilization table (ports first, then regions)."""
        entries: Dict[str, Mapping[str, object]] = {}
        entries["port(s)"] = {
            "busy": self.port_busy_time(),
            "utilization": self.port_utilization(num_ports, makespan),
            "served": len(self.served),
            "blocked": len(self.blocked) + self.rejected_arrivals,
        }
        busy_times = self.region_busy_times()
        region_counts = self.region_counts()
        for region, busy in busy_times.items():
            served, blocked = region_counts.get(region, (0, 0))
            entries[region] = {
                "busy": busy,
                "utilization": busy / makespan if makespan > 0 else 0.0,
                "served": served,
                "blocked": blocked,
            }
        return sim_utilization_rows(entries)

    def format_latency(self, title: str | None = "Latency percentiles (s)") -> str:
        """The latency summary as a fixed-width table."""
        return format_table(SIM_LATENCY_HEADERS, self.latency_rows(), title=title)

    def format_utilization(
        self,
        num_ports: int,
        makespan: float,
        title: str | None = "Utilization",
    ) -> str:
        """The utilization summary as a fixed-width table."""
        return format_table(
            SIM_UTILIZATION_HEADERS,
            self.utilization_rows(num_ports, makespan),
            title=title,
        )

    def __len__(self) -> int:
        return len(self.records)
