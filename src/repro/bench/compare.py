"""Diff two benchmark reports and gate on regressions.

``repro.bench compare old.json new.json --threshold 0.25`` compares the
median wall time of every benchmark present in both files.  A benchmark
regresses when its median grew by more than the threshold fraction
(0.25 = 25% slower); the CLI exits non-zero when any benchmark regresses,
which is what the CI gate keys on (optionally ``--warn-only`` while a fresh
baseline stabilizes).
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.bench.report import BenchReport

__all__ = ["Delta", "CompareResult", "compare_reports", "format_comparison"]

#: Medians this fast are dominated by timer noise; never flag them.
MIN_GATED_SECONDS = 1e-4


@dataclasses.dataclass(frozen=True)
class Delta:
    """Median wall-time change of one benchmark between two reports."""

    name: str
    old_median_s: float
    new_median_s: float

    @property
    def ratio(self) -> float:
        """``new / old`` median time (>1 means slower)."""
        if self.old_median_s <= 0:
            return float("inf") if self.new_median_s > 0 else 1.0
        return self.new_median_s / self.old_median_s

    @property
    def speedup(self) -> float:
        """``old / new`` median time (>1 means faster)."""
        if self.new_median_s <= 0:
            return float("inf") if self.old_median_s > 0 else 1.0
        return self.old_median_s / self.new_median_s

    @property
    def is_noise(self) -> bool:
        """Both medians below the gating floor — timer noise, never flagged."""
        return max(self.old_median_s, self.new_median_s) < MIN_GATED_SECONDS

    def is_regression(self, threshold: float) -> bool:
        """Slower by more than ``threshold`` (fractional) and above noise."""
        return not self.is_noise and self.ratio > 1.0 + threshold

    def is_improvement(self, threshold: float) -> bool:
        """Faster by more than ``threshold`` (fractional) and above noise."""
        return not self.is_noise and self.speedup > 1.0 + threshold


@dataclasses.dataclass
class CompareResult:
    """Outcome of comparing two reports."""

    deltas: List[Delta]
    only_old: List[str]
    only_new: List[str]
    threshold: float

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.is_regression(self.threshold)]

    @property
    def ok(self) -> bool:
        """True when no benchmark regressed past the threshold."""
        return not self.regressions


def compare_reports(
    old: BenchReport, new: BenchReport, threshold: float = 0.25
) -> CompareResult:
    """Compare benchmarks present in both reports; track one-sided names."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    old_names = set(old.names())
    new_names = set(new.names())
    deltas = [
        Delta(
            name=name,
            old_median_s=old.result(name).median_s,
            new_median_s=new.result(name).median_s,
        )
        for name in sorted(old_names & new_names)
    ]
    return CompareResult(
        deltas=deltas,
        only_old=sorted(old_names - new_names),
        only_new=sorted(new_names - old_names),
        threshold=threshold,
    )


def format_comparison(result: CompareResult) -> str:
    """Human-readable comparison table, worst regression first."""
    lines = []
    header = f"{'benchmark':<40} {'old (ms)':>10} {'new (ms)':>10} {'ratio':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for delta in sorted(result.deltas, key=lambda d: -d.ratio):
        flag = ""
        if delta.is_regression(result.threshold):
            flag = "  << REGRESSION"
        elif delta.is_improvement(result.threshold):
            flag = f"  ({delta.speedup:.2f}x faster)"
        lines.append(
            f"{delta.name:<40} {delta.old_median_s * 1e3:>10.3f} "
            f"{delta.new_median_s * 1e3:>10.3f} {delta.ratio:>8.3f}{flag}"
        )
    for name in result.only_old:
        lines.append(f"{name:<40} (removed)")
    for name in result.only_new:
        lines.append(f"{name:<40} (new)")
    lines.append(
        f"{len(result.regressions)} regression(s) past {result.threshold:.0%} "
        f"over {len(result.deltas)} shared benchmark(s)"
    )
    return "\n".join(lines)
