"""Helpers shared by the workload modules."""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def cpu_ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks of this machine so far, from ``/proc/stat``.

    Steal is time the hypervisor ran someone else while this VM wanted the
    CPU; on a shared host it is the main source of run-to-run spread.
    """
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def busy_ticks() -> Tuple[int, int]:
    """(stolen, busy) CPU ticks so far: busy is every state but idle and iowait."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return steal, user + nice + system + irq + softirq + steal


class Stopwatch:
    """Wall time with the share the hypervisor stole taken out.

    A vCPU that wants to run but waits for the host is counted as steal.  The
    work the benchmark times is CPU-bound, so it is slowed by the stolen share
    of the machine's busy time, which on a shared host ranges from 0 to over
    50 % from one minute to the next.  :meth:`seconds` is the wall time
    scaled by one minus that share: what the run would have taken on the
    CPU it actually got.  ``raw`` and ``stolen`` keep the two factors.
    """

    def __init__(self) -> None:
        self._ticks = busy_ticks()
        self._wall = time.perf_counter()
        self.raw = 0.0
        self.stolen = 0.0

    def stop(self) -> float:
        """Stop the watch; returns :meth:`seconds`."""
        self.raw = time.perf_counter() - self._wall
        self.stolen = steal_share(self._ticks, busy_ticks())
        return self.seconds()

    def seconds(self) -> float:
        return self.raw * (1.0 - self.stolen)
