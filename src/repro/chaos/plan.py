"""Chaos schedules: which fault, when, for how long.

A :class:`ChaosPlan` is a deterministic list of :class:`ChaosEvent`\\ s —
an action instance, its injection instant (wall-clock seconds from run
start), and an optional duration after which the runner reverts it.
:func:`random_plan` draws a seeded plan whose arrival instants come from the
same Poisson primitive as the simulator's fabric faults
(:func:`repro.sim.faults.poisson_times`), so a chaos run replays
bit-identically from ``(rate, horizon, seed)``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.chaos.actions import (
    ChaosAction,
    CorruptCacheEntry,
    FillCacheDir,
    KillReplica,
    PauseReplica,
    SlowReplica,
)
from repro.sim.faults import poisson_times
from repro.utils.rng import make_rng

__all__ = ["ChaosEvent", "ChaosPlan", "random_plan"]


@dataclasses.dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault.

    ``duration`` of ``None`` means the fault is never explicitly reverted
    during the run (a kill heals through the supervisor); the runner still
    calls ``revert`` once at the end so stateful actions clean up.
    """

    time: float
    action: ChaosAction
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("event duration must be positive (or None)")


class ChaosPlan:
    """A deterministic, time-ordered fault schedule."""

    def __init__(self, events: Sequence[ChaosEvent]) -> None:
        self._events = tuple(sorted(events, key=lambda event: event.time))

    def events(self, horizon: float) -> List[ChaosEvent]:
        """Every event injecting before ``horizon``, in time order."""
        return [event for event in self._events if event.time < horizon]

    def __len__(self) -> int:
        return len(self._events)

    def describe(self) -> List[str]:
        return [
            f"t={event.time:.2f}s {event.action.name}"
            + (f" for {event.duration:.2f}s" if event.duration is not None else "")
            for event in self._events
        ]


# fault kinds a random plan draws from, roughly ordered mild -> severe;
# weights make process faults (the interesting recovery paths) more common
# than cache mutilation
_KINDS = (
    "kill", "kill",
    "pause", "pause",
    "slow",
    "corrupt_entry",
    "fill_cache",
)


def random_plan(
    replicas: int,
    rate: float,
    horizon: float,
    seed: int = 0,
    settle: float = 1.0,
    include_cache_faults: bool = True,
) -> ChaosPlan:
    """A seeded Poisson fault schedule over ``replicas`` processes.

    ``settle`` shifts every injection past the fleet's warm-up so the first
    fault hits a serving system, not a booting one.  Durations are drawn so
    revertible faults (pause/slow/fill) heal within the horizon, leaving the
    tail of the run to observe recovery.
    """
    if replicas <= 0:
        raise ValueError("replicas must be positive")
    rng = make_rng(seed)
    events: List[ChaosEvent] = []
    kinds = _KINDS if include_cache_faults else tuple(
        kind for kind in _KINDS if kind in ("kill", "pause", "slow")
    )
    for time in poisson_times(rate, max(horizon - settle, 0.1), seed=seed):
        when = settle + time
        kind = kinds[int(rng.integers(len(kinds)))]
        index = int(rng.integers(replicas))
        duration = 0.5 + float(rng.integers(100)) / 100.0  # 0.5 .. 1.49 s
        if kind == "kill":
            events.append(ChaosEvent(when, KillReplica(index)))
        elif kind == "pause":
            events.append(ChaosEvent(when, PauseReplica(index), duration=duration))
        elif kind == "slow":
            events.append(ChaosEvent(when, SlowReplica(index), duration=duration))
        elif kind == "corrupt_entry":
            events.append(ChaosEvent(when, CorruptCacheEntry()))
        else:
            events.append(ChaosEvent(when, FillCacheDir(), duration=duration))
    return ChaosPlan(events)
