"""The partial-reconfiguration run-time manager.

The manager owns a solved floorplan and drives the simulated configuration
path.  It supports the two operations the paper's introduction motivates:

* **reconfigure** a region with a new mode — generate (or fetch from the
  bitstream cache) the mode's bitstream for the region's home placement and
  load it;
* **relocate** a region's currently-loaded module into one of the
  free-compatible areas the floorplanner reserved — retarget the bitstream
  with the relocation filter and load it at the new location, freeing the
  home placement (e.g. to let another, larger module in, or to route around a
  faulty area).

On top of the offline replay path the manager exposes the hooks the online
simulator (:mod:`repro.sim`) needs: a ``clock`` callable that timestamps
trace events with virtual time, :meth:`inject_fault` to mask rectangles as
faulty (placements overlapping a fault are rejected, forcing relocation or a
re-floorplan), an optional ``allowed_modes`` table that turns unknown-mode
requests into :class:`ReconfigurationError`, and an externally-shareable
bounded :class:`BitstreamCache` with hit/miss/eviction counters.

Every operation is recorded in a :class:`~repro.runtime.trace.RuntimeTrace`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bitstream.bitstream import PartialBitstream, generate_bitstream
from repro.bitstream.memory import ConfigurationMemory
from repro.bitstream.relocate import RelocationError, relocate_bitstream
from repro.floorplan.geometry import Rect
from repro.floorplan.placement import Floorplan
from repro.runtime.trace import EventKind, RuntimeTrace, TraceEvent


class ReconfigurationError(RuntimeError):
    """Raised on invalid run-time requests (unknown region, no free area...)."""


class BitstreamCache:
    """A bounded LRU cache of generated/relocated partial bitstreams.

    The cache is keyed by ``(device, region, mode, rect)`` and capped at
    ``capacity`` entries; the least-recently-used entry is evicted when the
    cap is hit.  Hit/miss/eviction counters are exposed through :meth:`stats`
    so the simulator's reports can show cache effectiveness.  A single cache
    may be shared by several managers (the "external bitstream cache"
    deployment, where one store backs every device of a fleet) — the device
    name in the key keeps bitstreams generated for different fabrics apart.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, PartialBitstream]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: tuple) -> Optional[PartialBitstream]:
        """The cached bitstream for ``key`` (LRU-refreshed), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, bitstream: PartialBitstream) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail past capacity."""
        self._entries[key] = bitstream
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def drop_device(self, device_name: str) -> int:
        """Invalidate every entry for a device; returns the count dropped.

        Used when a device is retired (e.g. replaced by its fault-masked
        successor after a live re-floorplan) so dead entries stop occupying
        LRU capacity.  Counted separately from capacity evictions.
        """
        dead = [key for key in self._entries if key[0] == device_name]
        for key in dead:
            del self._entries[key]
        self.invalidations += len(dead)
        return len(dead)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        """Counters: size, capacity, hits, misses, evictions, invalidations."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"BitstreamCache({len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


class ReconfigurationManager:
    """Drives mode reconfiguration and bitstream relocation on a floorplan.

    Parameters
    ----------
    floorplan:
        A complete solved floorplan (every region placed).
    cache:
        Optional externally-owned :class:`BitstreamCache`; by default each
        manager gets a private cache of ``cache_capacity`` entries.
    cache_capacity:
        Capacity of the private cache when ``cache`` is not given.
    clock:
        Optional zero-argument callable returning the current (virtual) time;
        when set, every trace event carries its timestamp.
    allowed_modes:
        Optional ``{region: [mode, ...]}`` table.  When present, reconfigure
        requests for a mode not listed for the region are rejected — the
        simulator uses this to model requests for modes the design does not
        ship bitstreams for.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        cache: Optional[BitstreamCache] = None,
        cache_capacity: int = 64,
        clock: Optional[Callable[[], float]] = None,
        allowed_modes: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        if not floorplan.is_complete:
            raise ReconfigurationError("the floorplan must place every region")
        self.floorplan = floorplan
        self.device = floorplan.device
        self.partition = floorplan.problem.partition
        self.memory = ConfigurationMemory(self.device.name)
        self.trace = RuntimeTrace()
        self.clock = clock
        self.allowed_modes = (
            {region: tuple(modes) for region, modes in allowed_modes.items()}
            if allowed_modes is not None
            else None
        )
        self._step = 0
        # where each region's active module currently lives (home or a free area)
        self._current_rect: Dict[str, Rect] = {
            name: placement.rect for name, placement in floorplan.placements.items()
        }
        self._current_module: Dict[str, Optional[str]] = {
            name: None for name in floorplan.placements
        }
        self._bitstream_cache = cache if cache is not None else BitstreamCache(cache_capacity)
        self._faults: List[Tuple[Rect, str]] = []

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def current_location(self, region: str) -> Rect:
        """Rectangle currently hosting the region's active module."""
        self._check_region(region)
        return self._current_rect[region]

    def active_module(self, region: str) -> Optional[str]:
        """Mode currently loaded for a region (``None`` before the first load)."""
        self._check_region(region)
        return self._current_module[region]

    def available_relocation_targets(self, region: str) -> List[Rect]:
        """Free-compatible areas of the region not currently hosting anyone.

        Fault-masked areas are excluded: relocating into a rectangle that
        overlaps an injected fault would place the module on broken fabric.
        """
        self._check_region(region)
        occupied = [
            rect for name, rect in self._current_rect.items() if name != region
        ]
        targets = []
        for area in self.floorplan.free_areas_for(region):
            if not area.satisfied:
                continue
            if area.rect == self._current_rect[region]:
                continue
            if any(area.rect.overlaps(rect) for rect in occupied):
                continue
            if self.is_fault_masked(area.rect):
                continue
            targets.append(area.rect)
        return targets

    def cache_stats(self) -> Dict[str, int]:
        """Bitstream-cache counters (size/capacity/hits/misses/evictions)."""
        return self._bitstream_cache.stats()

    @property
    def bitstream_cache(self) -> BitstreamCache:
        """The (possibly shared) bitstream cache backing this manager."""
        return self._bitstream_cache

    # ------------------------------------------------------------------
    # fault masking
    # ------------------------------------------------------------------
    @property
    def faulty_rects(self) -> List[Rect]:
        """Rectangles currently masked as faulty."""
        return [rect for rect, _ in self._faults]

    @property
    def faults(self) -> List[Tuple[Rect, str]]:
        """Injected faults as ``(rect, detail)`` pairs."""
        return list(self._faults)

    def is_fault_masked(self, rect: Rect) -> bool:
        """Whether ``rect`` overlaps any injected fault."""
        return any(rect.overlaps(fault) for fault, _ in self._faults)

    def inject_fault(self, rect: Rect, detail: str = "", record: bool = True) -> None:
        """Mask ``rect`` as faulty fabric.

        Subsequent loads into any placement overlapping the fault are
        rejected; already-loaded modules keep running (the model is a
        configuration-plane fault, detected on the next write), but the usual
        recovery is to relocate them away before the next reconfiguration.
        ``record=False`` skips the trace event — used when a replacement
        manager inherits faults that were already recorded once.
        """
        self._faults.append((rect, detail))
        if not record:
            return
        self._step += 1
        self.trace.record(
            TraceEvent(
                step=self._step,
                kind=EventKind.FAULT,
                region="",
                module="",
                target=str(rect),
                detail=detail or "fault injected",
                time=self._now(),
            )
        )

    def clear_faults(self) -> None:
        """Forget every injected fault (a repaired / reloaded device)."""
        self._faults.clear()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def reconfigure(self, region: str, mode: str) -> PartialBitstream:
        """Load ``mode`` into the region at its current location."""
        self._check_region(region)
        if self.allowed_modes is not None and mode not in self.allowed_modes.get(
            region, ()
        ):
            self._reject(region, mode, f"unknown mode {mode!r} for region {region!r}")
        rect = self._current_rect[region]
        if self.is_fault_masked(rect):
            self._reject(
                region,
                mode,
                f"current placement {rect} of region {region!r} is fault-masked",
            )
        self._step += 1
        bitstream = self._bitstream_for(region, mode, rect)
        previous = self._current_module[region]
        if previous is not None:
            self.memory.unload(self._module_key(region, previous))
        self.memory.load(bitstream)
        self._current_module[region] = mode
        kind = EventKind.CONFIGURE if previous is None else EventKind.RECONFIGURE
        self.trace.record(
            TraceEvent(
                step=self._step,
                kind=kind,
                region=region,
                module=mode,
                frames=bitstream.num_frames,
                time=self._now(),
            )
        )
        return bitstream

    def relocate(self, region: str, target: Rect | None = None) -> PartialBitstream:
        """Move the region's active module into a free-compatible area.

        ``target`` defaults to the first available reserved area.  The home
        placement (or previous area) is unloaded, so its frames become free
        for other uses — exactly the design-reuse scenario of the paper.
        """
        self._check_region(region)
        mode = self._current_module[region]
        if mode is None:
            raise ReconfigurationError(f"region {region!r} has no loaded module to relocate")
        targets = self.available_relocation_targets(region)
        if target is None:
            if not targets:
                self._reject(
                    region,
                    mode,
                    f"no free-compatible area available for region {region!r}",
                )
            target = targets[0]
        elif self.is_fault_masked(target):
            self._reject(
                region,
                mode,
                f"relocation target {target} for region {region!r} is fault-masked",
            )

        self._step += 1
        source_rect = self._current_rect[region]
        source = self._bitstream_for(region, mode, source_rect)
        occupied = [
            rect for name, rect in self._current_rect.items() if name != region
        ]
        try:
            relocated = relocate_bitstream(
                source, target, self.device, self.partition, occupied
            )
        except RelocationError as exc:
            self.trace.record(
                TraceEvent(
                    step=self._step,
                    kind=EventKind.REJECT,
                    region=region,
                    module=mode,
                    detail=str(exc),
                    time=self._now(),
                )
            )
            raise ReconfigurationError(str(exc)) from exc

        self.memory.unload(self._module_key(region, mode))
        # relocated bitstream keeps the module identity but a new anchor
        self.memory.load(relocated, allow_overwrite=False)
        self._current_rect[region] = target
        self._bitstream_cache.put(self._cache_key(region, mode, target), relocated)
        self.trace.record(
            TraceEvent(
                step=self._step,
                kind=EventKind.RELOCATE,
                region=region,
                module=mode,
                frames=relocated.num_frames,
                target=str(target),
                time=self._now(),
            )
        )
        return relocated

    def return_home(self, region: str) -> PartialBitstream:
        """Relocate the region's module back to its floorplanned home area."""
        self._check_region(region)
        home = self.floorplan.placements[region].rect
        if self._current_rect[region] == home:
            raise ReconfigurationError(f"region {region!r} is already at its home placement")
        return self.relocate(region, target=home)

    # ------------------------------------------------------------------
    def _bitstream_for(self, region: str, mode: str, rect: Rect) -> PartialBitstream:
        key = self._cache_key(region, mode, rect)
        bitstream = self._bitstream_cache.get(key)
        if bitstream is None:
            bitstream = generate_bitstream(
                self.device, rect, module=self._module_key(region, mode)
            )
            self._bitstream_cache.put(key, bitstream)
        return bitstream

    def _cache_key(self, region: str, mode: str, rect: Rect) -> tuple:
        return (self.device.name, region, mode, self._rect_key(rect))

    def _now(self) -> float:
        return float(self.clock()) if self.clock is not None else 0.0

    def _reject(self, region: str, mode: str, detail: str) -> None:
        self._step += 1
        self.trace.record(
            TraceEvent(
                step=self._step,
                kind=EventKind.REJECT,
                region=region,
                module=mode,
                detail=detail,
                time=self._now(),
            )
        )
        raise ReconfigurationError(detail)

    @staticmethod
    def _module_key(region: str, mode: str) -> str:
        return f"{region}:{mode}"

    @staticmethod
    def _rect_key(rect: Rect) -> tuple:
        return (rect.col, rect.row, rect.width, rect.height)

    def _check_region(self, region: str) -> None:
        if region not in self._current_rect:
            raise ReconfigurationError(f"unknown region {region!r}")
