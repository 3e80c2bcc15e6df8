"""Multi-device fleet simulation on the vectorized sim core.

Hundreds of devices share one traffic process: a :class:`Dispatcher` assigns
each arrival to a device, each device serves reconfigurations through its own
(serial) ICAP ports with a bounded queue, per-device fault plans knock
devices out for ``repair_time`` virtual seconds, and every request lands in a
per-device :class:`~repro.sim.stats.SimStats` that merges into one fleet
roll-up.

The per-device model is deliberately lighter than
:class:`~repro.sim.engine.SimulationEngine`: a :class:`DeviceProfile` carries
the configuration-frame count per region (frames depend only on the placed
rectangle, not the mode — see :func:`repro.floorplan.placement.rect_frames`), so
service time is ``frames * seconds_per_frame`` without touching the bitstream
machinery.  That is what makes binary-searching fleet sizes over hundreds of
devices tractable, while staying calibrated to the single-device engine.

Determinism: one :class:`~repro.sim.events.EventQueue` orders everything by
``(time, kind, seq)``; traffic and fault streams are seeded; dispatchers are
deterministic.  Two runs of the same scenario produce identical stats.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.capacity.dispatch import Dispatcher
from repro.floorplan.placement import rect_frames
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue, SimEventKind
from repro.sim.faults import FaultPlan
from repro.sim.stats import RequestRecord, SimStats
from repro.sim.traffic import ModeRequest, TrafficModel

__all__ = ["DeviceProfile", "FleetConfig", "FleetResult", "FleetSimulation"]


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """Service characteristics of one device type.

    ``frame_counts`` maps each region to the configuration frames a
    reconfiguration writes; service time is ``frames * seconds_per_frame``.
    """

    name: str
    frame_counts: Mapping[str, int]
    seconds_per_frame: float = 1e-4
    num_ports: int = 1

    def __post_init__(self) -> None:
        if not self.frame_counts:
            raise ValueError("a device profile needs at least one region")
        if self.seconds_per_frame <= 0:
            raise ValueError("seconds_per_frame must be positive")
        if self.num_ports <= 0:
            raise ValueError("num_ports must be positive")

    @classmethod
    def from_floorplan(
        cls,
        device,
        placements: Mapping[str, "object"],
        seconds_per_frame: float = 1e-4,
        num_ports: int = 1,
        name: Optional[str] = None,
    ) -> "DeviceProfile":
        """Derive frame counts from a device model and per-region rectangles."""
        counts = {
            region: rect_frames(device, rect) for region, rect in placements.items()
        }
        return cls(
            name=name or device.name,
            frame_counts=dict(sorted(counts.items())),
            seconds_per_frame=seconds_per_frame,
            num_ports=num_ports,
        )

    def service_time(self, region: str) -> float:
        """Seconds one reconfiguration of ``region`` occupies a port."""
        return self.frame_counts[region] * self.seconds_per_frame

    def regions(self) -> List[str]:
        return sorted(self.frame_counts)


@dataclasses.dataclass
class FleetConfig:
    """Knobs of one fleet run."""

    horizon: float = 100.0
    queue_capacity: Optional[int] = 64  # per device; None = unbounded
    repair_time: float = 5.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ValueError("queue_capacity must be non-negative")
        if self.repair_time <= 0:
            raise ValueError("repair_time must be positive")


@dataclasses.dataclass
class _Pending:
    request_id: int
    request: ModeRequest
    arrival: float
    start: float = 0.0


class _Device:
    """Run-time state of one fleet device.

    ``load`` counts in-flight work (busy ports plus queued requests) and
    ``limit`` is the load at which the device stops accepting: every port
    busy and the queue full.  An up device never holds a queue beside a free
    port (every state change drains it), so ``up and load < limit`` is
    exactly "up, with a free port or queue headroom".
    """

    def __init__(self, index: int, name: str, profile: DeviceProfile, config: FleetConfig):
        self.index = index
        self.name = name
        self.profile = profile
        self.free_ports = profile.num_ports
        self.queue: Deque[_Pending] = deque()
        self.load = 0
        capacity = config.queue_capacity
        self.limit = math.inf if capacity is None else profile.num_ports + capacity
        self.up = True
        self.stats = SimStats()
        self.downtime = 0.0
        self._down_since = 0.0

    def can_accept(self) -> bool:
        return self.up and self.load < self.limit


@dataclasses.dataclass
class FleetResult:
    """Everything one fleet run produced."""

    stats: SimStats  # fleet-wide roll-up (includes shed arrivals)
    per_device: Dict[str, SimStats]
    num_devices: int
    config: FleetConfig
    makespan: float
    events_processed: int
    offered: int
    downtime: Dict[str, float]

    @property
    def served_throughput(self) -> float:
        """Successfully served requests per virtual second of traffic horizon."""
        return len(self.stats.served) / self.config.horizon

    def metrics(self) -> Dict[str, float]:
        """The SLO-relevant scalars of this run."""
        summary = self.stats.latency_summary()["latency"]
        served = len(self.stats.served)
        return {
            "offered": float(self.offered),
            "served": float(served),
            "served_throughput": self.served_throughput,
            "throughput_fraction": served / self.offered if self.offered else 1.0,
            "blocking_probability": self.stats.blocking_probability,
            "p50_latency_s": float(summary.get("p50", 0.0)),
            "p99_latency_s": float(summary.get("p99", 0.0)),
            "max_latency_s": float(summary.get("max", 0.0)),
            "total_downtime_s": float(sum(self.downtime.values())),
        }


class FleetSimulation:
    """Plays one shared traffic process over ``num_devices`` devices."""

    def __init__(
        self,
        profile: DeviceProfile,
        num_devices: int,
        traffic: TrafficModel,
        dispatcher: Dispatcher,
        fault_plans: Optional[Mapping[str, FaultPlan]] = None,
        config: Optional[FleetConfig] = None,
    ) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        self.profile = profile
        self.traffic = traffic
        self.dispatcher = dispatcher
        self.config = config or FleetConfig()
        self.clock = VirtualClock()
        self._queue = EventQueue()
        self.devices = [
            _Device(index, f"{profile.name}-{index:03d}", profile, self.config)
            for index in range(num_devices)
        ]
        self.fault_plans = dict(fault_plans or {})
        self._shed = 0
        self._offered = 0
        self._events_processed = 0

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        horizon = self.config.horizon
        by_name = {device.name: device for device in self.devices}
        arrivals = (
            (
                request.time,
                SimEventKind.ARRIVAL,
                _Pending(request_id=index, request=request, arrival=request.time),
            )
            for index, request in enumerate(self.traffic.generate(horizon))
        )
        faults = (
            (event.time, SimEventKind.FAULT, by_name[name])
            for name in sorted(self.fault_plans)
            if name in by_name
            for event in self.fault_plans[name].events(horizon)
        )
        # one batch, arrivals then faults by device name: one sort, no merge
        self._queue.push_batch(itertools.chain(arrivals, faults))

        while self._queue:
            event = self._queue.pop()
            self.clock.advance_to(event.time)
            self._events_processed += 1
            if event.kind is SimEventKind.ARRIVAL:
                self._on_arrival(event.payload)
            elif event.kind is SimEventKind.COMPLETE:
                self._on_complete(event.payload)
            elif event.kind is SimEventKind.FAULT:
                self._on_fault(event.payload)
            else:
                self._on_repair(event.payload)

        per_device = {device.name: device.stats for device in self.devices}
        stats = SimStats.merged([device.stats for device in self.devices])
        stats.rejected_arrivals += self._shed
        return FleetResult(
            stats=stats,
            per_device=per_device,
            num_devices=len(self.devices),
            config=self.config,
            makespan=self.clock.now,
            events_processed=self._events_processed,
            offered=self._offered,
            downtime={
                device.name: device.downtime
                for device in self.devices
                if device.downtime > 0.0
            },
        )

    # ------------------------------------------------------------------
    def _on_arrival(self, pending: _Pending) -> None:
        self._offered += 1
        device = self.dispatcher.assign(pending.request, self.devices)
        if device is None:
            self._shed += 1  # no device can accept: shed at the front door
            return
        device.load += 1
        if device.up and device.free_ports > 0:
            self._start(device, pending)
        else:
            device.queue.append(pending)

    def _on_complete(self, payload: Tuple[_Device, _Pending]) -> None:
        device, pending = payload
        device.free_ports += 1
        device.load -= 1
        device.stats.record(
            RequestRecord(
                request_id=pending.request_id,
                region=pending.request.region,
                mode=pending.request.mode,
                arrival=pending.arrival,
                start=pending.start,
                finish=self.clock.now,
                action="reconfigure",
                frames=device.profile.frame_counts[pending.request.region],
                ok=True,
                detail=device.name,
            )
        )
        self._drain(device)

    def _on_fault(self, device: _Device) -> None:
        # re-faulting a down device extends nothing: its repair is already queued
        if not device.up:
            return
        device.up = False
        device._down_since = self.clock.now
        device.stats.record_fault(self.clock.now)
        self._queue.push(
            self.clock.now + self.config.repair_time, SimEventKind.REPAIR, device
        )

    def _on_repair(self, device: _Device) -> None:
        device.up = True
        device.downtime += self.clock.now - device._down_since
        self._drain(device)

    # ------------------------------------------------------------------
    def _start(self, device: _Device, pending: _Pending) -> None:
        device.free_ports -= 1
        pending.start = self.clock.now
        service = device.profile.service_time(pending.request.region)
        self._queue.push(
            self.clock.now + service, SimEventKind.COMPLETE, (device, pending)
        )

    def _drain(self, device: _Device) -> None:
        while device.up and device.free_ports > 0 and device.queue:
            self._start(device, device.queue.popleft())
