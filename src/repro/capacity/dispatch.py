"""Pluggable request dispatchers for the fleet simulation.

A dispatcher picks which device serves an arriving request, mirroring the
router policies of :mod:`repro.fleet`: :class:`LeastLoaded` models an
omniscient load balancer, :class:`ConsistentHash` reuses the
:class:`~repro.fleet.hashing.HashRing` (region name as the key, the ring's
``preference`` chain as deterministic failover past down/full devices) so a
region's bitstreams stay hot in one device's cache, and :class:`RoundRobin`
is the baseline spray.  All three are deterministic: given the same request
sequence and device states they make the same choices.
"""

from __future__ import annotations

import abc
import math
from typing import List, Optional, Sequence

from repro.fleet.hashing import DEFAULT_VNODES, HashRing
from repro.sim.traffic import ModeRequest

__all__ = ["Dispatcher", "RoundRobin", "LeastLoaded", "ConsistentHash", "make_dispatcher"]


class Dispatcher(abc.ABC):
    """Chooses the serving device for each arrival."""

    @abc.abstractmethod
    def assign(self, request: ModeRequest, devices: Sequence) -> Optional[object]:
        """The device that should serve ``request`` (``None`` = shed it).

        ``devices`` are the fleet's device states in fixed index order; each
        exposes ``name``, ``index``, ``up``, ``load`` (busy ports plus queued
        requests), ``limit`` (the load at which it is full) and
        ``can_accept()`` (``up and load < limit``).
        """


class RoundRobin(Dispatcher):
    """Cycle through devices, skipping ones that cannot accept."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def assign(self, request: ModeRequest, devices: Sequence) -> Optional[object]:
        count = len(devices)
        for offset in range(count):
            device = devices[(self._next + offset) % count]
            if device.can_accept():
                self._next = (device.index + 1) % count
                return device
        return None


class LeastLoaded(Dispatcher):
    """Send each request to the acceptable device with the fewest in flight."""

    name = "least-loaded"

    def assign(self, request: ModeRequest, devices: Sequence) -> Optional[object]:
        # one pass in index order; a strict ``<`` lets the lower index win ties
        best, best_load = None, math.inf
        for device in devices:
            load = device.load
            if load < best_load and device.up and load < device.limit:
                if load == 0:
                    return device  # idle: no later device can do better
                best, best_load = device, load
        return best


class ConsistentHash(Dispatcher):
    """Route by region through a :class:`HashRing`, with ring-order failover.

    The same region always lands on the same device while it is healthy —
    the fleet-router affinity semantics — and fails over along the ring's
    deterministic preference chain when the owner is down or full.
    """

    name = "consistent-hash"

    def __init__(self, vnodes: int = DEFAULT_VNODES) -> None:
        self.vnodes = vnodes
        self._ring: Optional[HashRing] = None
        self._names: Optional[tuple] = None

    def assign(self, request: ModeRequest, devices: Sequence) -> Optional[object]:
        names = tuple(device.name for device in devices)
        if names != self._names:
            self._ring = HashRing(names, vnodes=self.vnodes)
            self._names = names
        by_name = {device.name: device for device in devices}
        for name in self._ring.preference(request.region):
            device = by_name[name]
            if device.can_accept():
                return device
        return None


_DISPATCHERS = {
    RoundRobin.name: RoundRobin,
    LeastLoaded.name: LeastLoaded,
    ConsistentHash.name: ConsistentHash,
}


def make_dispatcher(name: str) -> Dispatcher:
    """Instantiate a dispatcher by its CLI name."""
    try:
        return _DISPATCHERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown dispatcher {name!r}; pick one of {sorted(_DISPATCHERS)}"
        ) from None


def dispatcher_names() -> List[str]:
    """The CLI names of every registered dispatcher."""
    return sorted(_DISPATCHERS)
