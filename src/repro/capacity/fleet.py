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

Determinism: one flat loop orders plain ``(time, kind, seq, payload)``
tuples by the :class:`~repro.sim.events.SimEventKind` priorities; traffic and
fault streams are seeded; dispatchers are deterministic.  Two runs of the
same scenario produce identical stats.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.capacity.dispatch import Dispatcher
from repro.floorplan.placement import rect_frames
from repro.sim.clock import SimTimeError
from repro.sim.events import SimEventKind
from repro.sim.faults import FaultPlan
from repro.sim.stats import RequestRecord, SimStats, summarize
from repro.sim.traffic import ModeRequest, TrafficModel

__all__ = ["DeviceProfile", "FleetConfig", "FleetResult", "FleetSimulation"]

_COMPLETE, _REPAIR, _FAULT, _ARRIVAL = SimEventKind  # in priority order


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
        self.queue: Deque[Tuple[int, ModeRequest]] = deque()  # (request id, request)
        self.load = 0
        capacity = config.queue_capacity
        self.limit = math.inf if capacity is None else profile.num_ports + capacity
        self.up = True
        self.stats = SimStats()
        self.downtime = 0.0
        self.down_since = 0.0

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
        served = self.stats.served
        summary = summarize([record.latency for record in served])
        return {
            "offered": float(self.offered),
            "served": float(len(served)),
            "served_throughput": self.served_throughput,
            "throughput_fraction": len(served) / self.offered if self.offered else 1.0,
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
        self.devices = [
            _Device(index, f"{profile.name}-{index:03d}", profile, self.config)
            for index in range(num_devices)
        ]
        self.fault_plans = dict(fault_plans or {})

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Play every event in ``(time, kind, seq)`` order; roll up the stats.

        Arrivals (their ``seq`` is their request id), then each device's
        faults in device-name order, form one sorted static run read by a
        cursor.  Completions and repairs go on a small heap, and each step
        takes the smaller of the two fronts.  ``tests/capacity/fleet_oracle.py``
        keeps the event-queue, handler-per-kind loop this replaced.
        """
        horizon = self.config.horizon
        repair_time = self.config.repair_time
        devices = self.devices
        assign = self.dispatcher.assign
        frames = self.profile.frame_counts
        service = {region: self.profile.service_time(region) for region in frames}
        by_name = {device.name: device for device in devices}

        static = [
            (float(request.time), _ARRIVAL, seq, request)
            for seq, request in enumerate(self.traffic.generate(horizon))
        ]
        seq = len(static)
        for name in sorted(self.fault_plans.keys() & by_name.keys()):
            for event in self.fault_plans[name].events(horizon):
                static.append((float(event.time), _FAULT, seq, by_name[name]))
                seq += 1
        static.sort()
        if static and static[0][0] < 0:
            raise ValueError(f"event time must be non-negative, got {static[0][0]}")
        static.append((math.inf, _ARRIVAL, seq, None))  # sentinel: pops after the heap

        heap: List[tuple] = []
        push, pop = heapq.heappush, heapq.heappop
        cursor = 0
        now = 0.0
        processed = offered = shed = 0
        while True:
            if heap and heap[0] < static[cursor]:
                time, kind, key, payload = pop(heap)
            else:
                time, kind, key, payload = static[cursor]
                if time == math.inf:
                    break
                cursor += 1
            if time < now - 1e-12:
                raise SimTimeError(f"cannot advance virtual time backwards: {time} < {now}")
            if time > now:
                now = time
            processed += 1

            if kind == _ARRIVAL:
                offered += 1
                device = assign(payload, devices)
                if device is None:
                    shed += 1  # no device can accept: shed at the front door
                    continue
                device.load += 1
                device.queue.append((key, payload))  # the drain below starts it
            elif kind == _COMPLETE:
                device, request_id, request, start = payload
                device.free_ports += 1
                device.load -= 1
                record = RequestRecord(
                    request_id, request.region, request.mode, request.time, start,
                    now, "reconfigure", frames[request.region], True, device.name,
                )
                device.stats.record(record)
            elif kind == _FAULT:
                device = payload
                # re-faulting a down device extends nothing: its repair is queued
                if device.up:
                    device.up = False
                    device.down_since = now
                    device.stats.record_fault(now)
                    push(heap, (now + repair_time, _REPAIR, seq, device))
                    seq += 1
                continue
            else:
                device = payload
                device.up = True
                device.downtime += now - device.down_since

            # start queued requests FIFO on the free ports of an up device
            queue = device.queue
            while queue and device.up and device.free_ports > 0:
                request_id, request = queue.popleft()
                device.free_ports -= 1
                started = (device, request_id, request, now)
                push(heap, (now + service[request.region], _COMPLETE, seq, started))
                seq += 1

        stats = SimStats.merged([device.stats for device in devices])
        stats.rejected_arrivals += shed
        return FleetResult(
            stats=stats,
            per_device={device.name: device.stats for device in devices},
            num_devices=len(devices),
            config=self.config,
            makespan=now,
            events_processed=processed,
            offered=offered,
            downtime={
                device.name: device.downtime
                for device in devices
                if device.downtime > 0.0
            },
        )
