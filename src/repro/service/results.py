"""Result records produced by the batch service and sweep aggregation.

:class:`JobResult` is the flat, JSON-round-trippable record stored in the
solve cache and streamed out of the batch executor; :class:`SweepReport`
aggregates a grid of them into the tables wired through
:mod:`repro.analysis.report`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional

from repro.analysis.report import SWEEP_HEADERS, format_table, sweep_table_rows


@dataclasses.dataclass
class JobResult:
    """Flat record of one solved job.

    All fields are JSON-serializable so results round-trip through the
    on-disk cache unchanged.  ``floorplan`` holds the
    :meth:`~repro.floorplan.placement.Floorplan.to_dict` encoding of the
    solution (``None`` when the solve produced no placement).
    """

    fingerprint: str
    job_name: str
    status: str
    feasible: bool
    objective: float
    solve_time: float
    wall_time: float
    backend: str
    mode: str
    heuristic: Optional[str] = None
    metrics: Optional[Dict[str, float]] = None
    floorplan: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    cached: bool = False
    worker: str = ""
    #: ``True`` when a solve clamped by brown-out or a tight deadline budget
    #: hit that limit without proving optimality: a best-effort answer, not
    #: the canonical one.  Degraded results are never written to the shared
    #: cache, and one without a feasible floorplan is never served as a 200.
    degraded: bool = False
    #: Solver stage timings (``{"name": ..., "seconds": ...}`` dicts) captured
    #: by the tracing hooks during the solve; ``None`` for cached entries
    #: written before tracing existed (``from_dict`` tolerates both).
    stages: Optional[List[Dict[str, object]]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_report(cls, job, report, wall_time: float, worker: str = "") -> "JobResult":
        """Build a result from a :class:`~repro.floorplan.solver.SolveReport`."""
        floorplan = None
        if report.floorplan is not None and report.floorplan.placements:
            floorplan = report.floorplan.to_dict()
        return cls(
            fingerprint=job.fingerprint,
            job_name=job.name,
            status=report.solution.status.value,
            feasible=report.feasible,
            objective=float(report.solution.objective),
            solve_time=float(report.solution.solve_time),
            wall_time=float(wall_time),
            backend=report.solution.backend,
            mode=job.mode,
            heuristic=job.heuristic if job.mode == "HO" else None,
            metrics=report.metrics.as_dict() if report.metrics is not None else None,
            floorplan=floorplan,
            worker=worker,
            stages=getattr(report, "stages", None),
        )

    @classmethod
    def failure(cls, job, message: str, wall_time: float = 0.0, worker: str = "") -> "JobResult":
        """Record for a job whose execution raised instead of solving."""
        return cls(
            fingerprint=job.fingerprint,
            job_name=job.name,
            status="error",
            feasible=False,
            objective=float("nan"),
            solve_time=0.0,
            wall_time=float(wall_time),
            backend="",
            mode=job.mode,
            heuristic=job.heuristic if job.mode == "HO" else None,
            error=message,
            worker=worker,
        )

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (see :meth:`from_dict`).

        A flat copy of the fields: the top level is a fresh dict the caller
        may change, but the nested ``floorplan``, ``metrics`` and ``stages``
        containers are the record's own and are read-only.  They are plain
        JSON types already (:meth:`from_report` builds them fresh,
        :meth:`from_dict` takes them from ``json.load``), so no deep copy is
        needed to encode them.
        """
        data = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        if math.isnan(self.objective):
            data["objective"] = None  # JSON has no NaN
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobResult":
        """Rebuild a result from :meth:`as_dict` output."""
        known = {field.name for field in dataclasses.fields(cls)}
        payload = {key: value for key, value in data.items() if key in known}
        if payload.get("objective") is None:
            payload["objective"] = float("nan")
        return cls(**payload)

    # ------------------------------------------------------------------
    @property
    def seed_failed(self) -> bool:
        """Whether the job failed because HO mode's heuristic seed could not
        be built (:class:`~repro.floorplan.ho.HOSeedError`, named in the
        ``error`` :func:`~repro.service.executor.execute_job` records): the
        job has no floorplan, and the solver did not crash."""
        return self.status == "error" and (self.error or "").startswith("HOSeedError:")

    @property
    def wasted_frames(self) -> Optional[int]:
        """Wasted-frame count of the solution (``None`` when unsolved)."""
        if self.metrics is None:
            return None
        return int(self.metrics["wasted_frames"])

    @property
    def wirelength(self) -> Optional[float]:
        """Wirelength of the solution (``None`` when unsolved)."""
        if self.metrics is None:
            return None
        return float(self.metrics["wirelength"])

    def objective_key(self):
        """Deterministic comparison key: fewer wasted frames, then shorter
        wires, then the job name as a tie breaker."""
        wasted = self.wasted_frames
        wires = self.wirelength
        return (
            0 if self.feasible else 1,
            wasted if wasted is not None else float("inf"),
            wires if wires is not None else float("inf"),
            self.job_name,
        )


@dataclasses.dataclass
class SweepReport:
    """Aggregate outcome of one batch/sweep run.

    Attributes
    ----------
    results:
        One :class:`JobResult` per submitted job, in submission order
        (deduplicated jobs share the same underlying record content).
    wall_time:
        Wall-clock seconds for the whole batch, including scheduling.
    cache_hits, cache_misses:
        How many submitted jobs were served from the solve cache vs. solved.
    """

    results: List[JobResult]
    wall_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    @property
    def num_feasible(self) -> int:
        """Jobs that produced a verified-feasible floorplan."""
        return sum(1 for result in self.results if result.feasible)

    @property
    def num_errors(self) -> int:
        """Jobs whose execution failed."""
        return sum(1 for result in self.results if result.status == "error")

    @property
    def total_solve_time(self) -> float:
        """Sum of per-job backend solve times (the sequential-cost proxy)."""
        return sum(result.solve_time for result in self.results)

    @property
    def parallel_speedup(self) -> float:
        """Aggregate solver seconds divided by batch wall-clock seconds."""
        if self.wall_time <= 0:
            return float("inf")
        return self.total_solve_time / self.wall_time

    @property
    def hit_rate(self) -> float:
        """Fraction of submitted jobs served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # ------------------------------------------------------------------
    def rows(self) -> List[List[object]]:
        """Per-job metric rows (see :func:`repro.analysis.report.sweep_table_rows`)."""
        return sweep_table_rows(self.results)

    def format(self, title: str | None = None) -> str:
        """The per-job metrics table as fixed-width text."""
        return format_table(SWEEP_HEADERS, self.rows(), title=title)

    def summary(self) -> str:
        """One-line aggregate summary."""
        return (
            f"{len(self.results)} jobs: {self.num_feasible} feasible, "
            f"{self.num_errors} errors, {self.cache_hits} cache hits "
            f"({100 * self.hit_rate:.0f}%), wall {self.wall_time:.2f}s, "
            f"solver {self.total_solve_time:.2f}s "
            f"(speedup {self.parallel_speedup:.1f}x)"
        )
