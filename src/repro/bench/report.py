"""Schema-versioned JSON snapshots of a benchmark run (``BENCH_<rev>.json``).

The file layout (schema version 1)::

    {
      "schema_version": 1,
      "git_rev": "abc1234",
      "python_version": "3.11.7",
      "platform": "linux",
      "profile": "quick",
      "created_unix": 1753833600,
      "results": [
        {
          "name": "floorplan.sp_relations",
          "group": "floorplan",
          "repeats": 5,
          "warmup": 1,
          "median_s": 0.0123,
          "p10_s": 0.0119,
          "p90_s": 0.0131,
          "mean_s": 0.0124,
          "min_s": 0.0118,
          "units": 1.0,
          "unit_name": "calls",
          "throughput": 81.3,
          "peak_rss_kb": 184320,
          "extras": {"p99_ms": 4.2}
        }, ...
      ]
    }

``extras`` carries workload-reported auxiliary metrics (the ``fleet.*`` and
``resilience.*`` benchmarks record latency percentiles and error counts
there); it is
optional on read and omitted on write when empty, so snapshots from before
the field existed still load.

Percentiles are nearest-rank (:func:`repro.sim.stats.percentile`, the routine
the load generator, chaos harness and simulator share); with a single sample
every quantile field equals that sample.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench.runner import Measurement
from repro.sim.stats import percentile
from repro.utils.buildinfo import git_rev

__all__ = [
    "SCHEMA_VERSION",
    "BenchResult",
    "BenchReport",
    "default_report_name",
    "summarize",
    "load_report",
    "save_report",
]

SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class BenchResult:
    """Summary statistics of one benchmark."""

    name: str
    group: str
    repeats: int
    warmup: int
    median_s: float
    p10_s: float
    p90_s: float
    mean_s: float
    min_s: float
    units: float
    unit_name: str
    throughput: float
    peak_rss_kb: Optional[int]
    #: Workload-reported auxiliary metrics (latency percentiles, shed/hit
    #: rates, ...).  Optional in the file format so pre-extras snapshots
    #: still load; empty dicts are omitted on write.
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict:
        data = dataclasses.asdict(self)
        if not data["extras"]:
            del data["extras"]
        return data

    @staticmethod
    def from_dict(data: Dict) -> "BenchResult":
        fields = {f.name for f in dataclasses.fields(BenchResult)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown benchmark result fields: {sorted(unknown)}")
        missing = fields - set(data) - {"extras"}
        if missing:
            raise ValueError(f"missing benchmark result fields: {sorted(missing)}")
        return BenchResult(**data)


@dataclasses.dataclass
class BenchReport:
    """One harness run: environment metadata plus per-benchmark summaries."""

    results: List[BenchResult]
    git_rev: str
    python_version: str
    platform: str
    profile: str
    created_unix: int
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    def result(self, name: str) -> BenchResult:
        """Look a result up by benchmark name."""
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(f"no result named {name!r} in report")

    def names(self) -> List[str]:
        return [result.name for result in self.results]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "git_rev": self.git_rev,
            "python_version": self.python_version,
            "platform": self.platform,
            "profile": self.profile,
            "created_unix": self.created_unix,
            "results": [result.to_dict() for result in self.results],
        }

    @staticmethod
    def from_dict(data: Dict) -> "BenchReport":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported benchmark report schema {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        for key in ("git_rev", "python_version", "platform", "profile", "created_unix", "results"):
            if key not in data:
                raise ValueError(f"benchmark report missing field {key!r}")
        return BenchReport(
            results=[BenchResult.from_dict(entry) for entry in data["results"]],
            git_rev=data["git_rev"],
            python_version=data["python_version"],
            platform=data["platform"],
            profile=data["profile"],
            created_unix=int(data["created_unix"]),
            schema_version=int(version),
        )


# ----------------------------------------------------------------------
def default_report_name(rev: str | None = None) -> str:
    """The conventional output filename, ``BENCH_<rev>.json``."""
    return f"BENCH_{rev or git_rev()}.json"


def summarize(measurements: Sequence[Measurement], profile_name: str) -> BenchReport:
    """Reduce raw measurements into a serializable report."""
    results = []
    for measurement in measurements:
        ordered = sorted(measurement.times)
        median = statistics.median(ordered)
        results.append(
            BenchResult(
                name=measurement.benchmark.name,
                group=measurement.benchmark.group,
                repeats=len(ordered),
                warmup=measurement.profile.warmup,
                median_s=median,
                p10_s=percentile(ordered, 10, presorted=True),
                p90_s=percentile(ordered, 90, presorted=True),
                mean_s=statistics.fmean(ordered),
                min_s=ordered[0],
                units=measurement.units,
                unit_name=measurement.unit_name,
                throughput=measurement.units / median if median > 0 else float("inf"),
                peak_rss_kb=measurement.peak_rss_kb,
                extras=dict(measurement.extras),
            )
        )
    return BenchReport(
        results=results,
        git_rev=git_rev(),
        python_version=platform.python_version(),
        platform=sys.platform,
        profile=profile_name,
        created_unix=int(time.time()),
    )


def save_report(report: BenchReport, path: str | Path) -> Path:
    """Write a report as pretty-printed JSON (atomic rename)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=False) + "\n")
    tmp.replace(path)
    return path


def load_report(path: str | Path) -> BenchReport:
    """Read and validate a report file."""
    with open(path) as handle:
        return BenchReport.from_dict(json.load(handle))
