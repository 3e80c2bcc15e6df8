"""A small partial-reconfiguration run-time built on top of the floorplanner.

The introduction of the paper motivates relocation with design re-use and fast
run-time reconfiguration.  This package makes that motivation executable: a
:class:`~repro.runtime.manager.ReconfigurationManager` owns a solved
:class:`~repro.floorplan.placement.Floorplan` (including its reserved
free-compatible areas), loads module modes through the simulated
configuration memory and serves relocation requests by retargeting bitstreams
with the relocation filter.  :mod:`~repro.runtime.scheduler` generates mode
activation schedules (optionally timed, via per-step dwell times) and
:mod:`~repro.runtime.trace` records what happened so the benchmarks can
report reconfiguration counts and moved frame volumes.  The online
discrete-event simulator (:mod:`repro.sim`) layers stochastic traffic, fault
injection and decision policies on top of this package.
"""

from repro.runtime.manager import (
    BitstreamCache,
    ReconfigurationError,
    ReconfigurationManager,
)
from repro.runtime.scheduler import ModeSchedule, random_schedule, round_robin_schedule
from repro.runtime.trace import EventKind, RuntimeTrace, TraceEvent

__all__ = [
    "ReconfigurationManager",
    "ReconfigurationError",
    "BitstreamCache",
    "ModeSchedule",
    "round_robin_schedule",
    "random_schedule",
    "RuntimeTrace",
    "TraceEvent",
    "EventKind",
]
