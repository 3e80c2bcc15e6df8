"""Handler-based reference for :meth:`repro.capacity.fleet.FleetSimulation.run`.

The fleet loop in ``src/`` is one flat loop over a local heap.  This is the
design it replaced: an :class:`~repro.sim.events.EventQueue` of
:class:`~repro.sim.events.SimEvent` records, a :class:`VirtualClock`
advanced per event, and one method per event kind.  It is kept here, as a
test-only oracle, so the property tests can check the flat loop plays
exactly the same schedule on random fleets.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.capacity.fleet import FleetResult, FleetSimulation
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue, SimEventKind
from repro.sim.stats import RequestRecord, SimStats
from repro.sim.traffic import ModeRequest


@dataclasses.dataclass
class _Pending:
    request_id: int
    request: ModeRequest
    arrival: float
    start: float = 0.0


class OracleFleetSimulation(FleetSimulation):
    """:class:`FleetSimulation` with the event-queue, handler-per-kind loop."""

    def run(self) -> FleetResult:
        self.clock = VirtualClock()
        self._queue = EventQueue()
        self._shed = 0
        self._offered = 0
        self._events_processed = 0
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
            self._shed += 1
            return
        device.load += 1
        if device.up and device.free_ports > 0:
            self._start(device, pending)
        else:
            device.queue.append(pending)

    def _on_complete(self, payload) -> None:
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

    def _on_fault(self, device) -> None:
        if not device.up:
            return
        device.up = False
        device.down_since = self.clock.now
        device.stats.record_fault(self.clock.now)
        self._queue.push(
            self.clock.now + self.config.repair_time, SimEventKind.REPAIR, device
        )

    def _on_repair(self, device) -> None:
        device.up = True
        device.downtime += self.clock.now - device.down_since
        self._drain(device)

    # ------------------------------------------------------------------
    def _start(self, device, pending: _Pending) -> None:
        device.free_ports -= 1
        pending.start = self.clock.now
        service = device.profile.service_time(pending.request.region)
        self._queue.push(
            self.clock.now + service, SimEventKind.COMPLETE, (device, pending)
        )

    def _drain(self, device) -> None:
        while device.up and device.free_ports > 0 and device.queue:
            self._start(device, device.queue.popleft())
