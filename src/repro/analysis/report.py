"""Tabular reports (the textual Tables I and II).

These helpers build plain lists of rows so that the benchmark harness can both
print them (``format_table``) and assert on them in tests without parsing
strings.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.floorplan.metrics import evaluate_floorplan
from repro.floorplan.placement import Floorplan
from repro.floorplan.problem import FloorplanProblem


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Format rows as a fixed-width text table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def table1_rows(problem: FloorplanProblem) -> List[List[object]]:
    """Rows of Table I: per-region tile requirements and frame counts."""
    rows: List[List[object]] = []
    totals = {"CLB": 0, "BRAM": 0, "DSP": 0, "frames": 0}
    for region in problem.regions:
        req = region.requirements.as_dict()
        frames = problem.required_frames(region)
        rows.append(
            [
                region.name,
                req.get("CLB", 0),
                req.get("BRAM", 0),
                req.get("DSP", 0),
                frames,
            ]
        )
        totals["CLB"] += req.get("CLB", 0)
        totals["BRAM"] += req.get("BRAM", 0)
        totals["DSP"] += req.get("DSP", 0)
        totals["frames"] += frames
    rows.append(["Total", totals["CLB"], totals["BRAM"], totals["DSP"], totals["frames"]])
    return rows


TABLE1_HEADERS = ["Region", "CLB tiles", "BRAM tiles", "DSP tiles", "# Frames"]


def table2_rows(
    entries: Mapping[str, tuple],
) -> List[List[object]]:
    """Rows of Table II from ``{label: (design, floorplan or None)}``.

    Each value is a pair ``(design_name, floorplan)``; a missing floorplan
    produces a row with dashes, so partial benchmark runs still render.
    """
    rows: List[List[object]] = []
    for label, (design, floorplan) in entries.items():
        if floorplan is None:
            rows.append([label, design, "-", "-"])
            continue
        metrics = evaluate_floorplan(floorplan)
        rows.append(
            [
                label,
                design,
                floorplan.num_free_compatible_areas,
                metrics.wasted_frames,
            ]
        )
    return rows


TABLE2_HEADERS = ["Algorithm", "Design", "Free-compatible areas", "Wasted frames"]


SWEEP_HEADERS = [
    "Job",
    "Mode",
    "Status",
    "Feasible",
    "Wasted frames",
    "Wirelength",
    "Solve time (s)",
    "Cached",
]


def sweep_table_rows(results: Sequence[object]) -> List[List[object]]:
    """Per-job rows for a sweep of solve results.

    ``results`` are :class:`repro.service.results.JobResult`-shaped objects
    (duck-typed so this module stays independent of the service layer).
    Missing metrics render as dashes, mirroring :func:`table2_rows`.
    """
    rows: List[List[object]] = []
    for result in results:
        wasted = result.wasted_frames
        wires = result.wirelength
        rows.append(
            [
                result.job_name,
                result.mode,
                result.status,
                "yes" if result.feasible else "no",
                wasted if wasted is not None else "-",
                f"{wires:.1f}" if wires is not None else "-",
                f"{result.solve_time:.2f}",
                "hit" if result.cached else "miss",
            ]
        )
    return rows


SIM_LATENCY_HEADERS = ["Metric", "Count", "Mean", "P50", "P90", "P99", "Max"]


def sim_latency_rows(
    summaries: Mapping[str, Mapping[str, float]],
) -> List[List[object]]:
    """Percentile rows for the online simulator's latency table.

    ``summaries`` maps a metric name (latency/wait/service) to the summary
    dict produced by :meth:`repro.sim.stats.SimStats.latency_summary`;
    metrics with no samples render as dashes, mirroring :func:`table2_rows`.
    """
    rows: List[List[object]] = []
    for metric, summary in summaries.items():
        count = int(summary.get("count", 0))
        if count == 0:
            rows.append([metric, 0, "-", "-", "-", "-", "-"])
            continue
        rows.append(
            [
                metric,
                count,
                f"{summary['mean']:.6f}",
                f"{summary['p50']:.6f}",
                f"{summary['p90']:.6f}",
                f"{summary['p99']:.6f}",
                f"{summary['max']:.6f}",
            ]
        )
    return rows


SIM_UTILIZATION_HEADERS = ["Resource", "Busy (s)", "Utilization", "Served", "Blocked"]


def sim_utilization_rows(
    entries: Mapping[str, Mapping[str, object]],
) -> List[List[object]]:
    """Utilization rows (ports and regions) for the online simulator.

    ``entries`` maps a resource label to ``{busy, utilization, served,
    blocked}`` as produced by :meth:`repro.sim.stats.SimStats.utilization_rows`.
    """
    rows: List[List[object]] = []
    for resource, entry in entries.items():
        rows.append(
            [
                resource,
                f"{float(entry['busy']):.6f}",
                f"{float(entry['utilization']):.4f}",
                int(entry["served"]),
                int(entry["blocked"]),
            ]
        )
    return rows


SERVER_COUNTER_HEADERS = ["Counter", "Value"]


def server_counter_rows(counters: Mapping[str, object]) -> List[List[object]]:
    """Two-column rows for the gateway's ``/metrics`` counter block.

    ``counters`` is the flat dict produced by
    :meth:`repro.server.metrics.GatewayMetrics.counters` — insertion order is
    preserved so the table reads in lifecycle order (received -> shed ->
    cache -> batches).  Rates render with fixed precision, counts as-is.
    """
    rows: List[List[object]] = []
    for name, value in counters.items():
        if isinstance(value, float):
            rows.append([name, f"{value:.4f}"])
        else:
            rows.append([name, value])
    return rows


def floorplan_report(floorplan: Floorplan) -> Dict[str, object]:
    """A flat dictionary describing a solved floorplan (for EXPERIMENTS.md)."""
    metrics = evaluate_floorplan(floorplan)
    return {
        "problem": floorplan.problem.name,
        "device": floorplan.device.name,
        "solver_status": floorplan.solver_status,
        "solve_time_s": round(floorplan.solve_time, 3),
        "wasted_frames": metrics.wasted_frames,
        "wirelength": round(metrics.wirelength, 1),
        "free_compatible_areas": metrics.free_compatible_areas,
        "unsatisfied_free_areas": metrics.unsatisfied_free_areas,
    }
