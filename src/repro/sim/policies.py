"""Pluggable decision policies for serving mode-activation requests.

A policy is handed the live :class:`ReconfigurationManager` and one
:class:`~repro.sim.traffic.ModeRequest` and decides *how* to satisfy it:

* :class:`ReconfigureInPlace` — always load at the current location; any
  rejection (fault mask, unknown mode) blocks the request;
* :class:`RelocateFirst` — when the current location is fault-masked, move
  the loaded module into a reserved free-compatible area first, then load the
  requested mode there;
* :class:`ResolveViaService` — escalate past relocation: when neither
  in-place nor relocation can serve the request, re-floorplan live with one
  O-mode :func:`~repro.service.executor.execute_job` solve, swap in a
  manager on the new floorplan and reload the displaced modules.

Policies return a :class:`PolicyOutcome`; the engine turns ``frames`` into
service time on the reconfiguration port and ``extra_time`` into additional
latency (the virtual cost of a re-floorplan).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, Optional

from repro.floorplan.metrics import ObjectiveWeights
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.runtime.manager import ReconfigurationError, ReconfigurationManager
from repro.sim.traffic import ModeRequest


@dataclasses.dataclass
class PolicyOutcome:
    """What a policy did with one request.

    Attributes
    ----------
    ok:
        Whether the request was served.
    action:
        Label for the stats tables (``"reconfigure"``, ``"relocate+reconfigure"``,
        ``"resolve+reconfigure"``, ``"blocked"``).
    frames:
        Configuration frames written (drives port service time).
    extra_time:
        Additional virtual seconds the request occupies the configuration
        path beyond its frame writes — a live re-floorplan's solver budget.
        The engine keeps the port and region busy for it: while the manager
        is being replaced no other reconfiguration can proceed.
    detail:
        Failure reason for blocked requests.
    new_manager:
        A replacement manager after a live re-floorplan (``None`` otherwise).
    """

    ok: bool
    action: str
    frames: int = 0
    extra_time: float = 0.0
    detail: str = ""
    new_manager: Optional[ReconfigurationManager] = None


class Policy(abc.ABC):
    """Base class of decision policies."""

    name = "policy"

    @abc.abstractmethod
    def apply(self, manager: ReconfigurationManager, request: ModeRequest) -> PolicyOutcome:
        """Serve ``request`` against ``manager`` and report what happened."""


def placement_fault_masked(manager: ReconfigurationManager, region: str) -> bool:
    """Whether ``region``'s current placement sits on fault-masked fabric.

    This is the shared "can moving things help?" predicate: relocation and
    live re-floorplanning only fix *placement* problems — an unknown mode or
    region fails identically anywhere on the fabric (and an unknown region
    has no placement at all, so the answer is ``False``).
    """
    try:
        return manager.is_fault_masked(manager.current_location(region))
    except ReconfigurationError:
        return False


class ReconfigureInPlace(Policy):
    """Reconfigure at the current location or fail — the paper's baseline."""

    name = "reconfigure-in-place"

    def apply(self, manager: ReconfigurationManager, request: ModeRequest) -> PolicyOutcome:
        try:
            bitstream = manager.reconfigure(request.region, request.mode)
        except ReconfigurationError as exc:
            return PolicyOutcome(ok=False, action="blocked", detail=str(exc))
        return PolicyOutcome(ok=True, action="reconfigure", frames=bitstream.num_frames)


class RelocateFirst(Policy):
    """Route around faults by relocating into reserved free areas.

    When the region's current rectangle is fault-masked (or the in-place load
    is otherwise rejected) and the region has a loaded module, the module is
    relocated into the first available free-compatible area and the requested
    mode is loaded there.  A region with no loaded module and a fault-masked
    home cannot relocate (there is nothing to move) and blocks — the
    escalation :class:`ResolveViaService` handles.
    """

    name = "relocate-first"

    def apply(self, manager: ReconfigurationManager, request: ModeRequest) -> PolicyOutcome:
        try:
            bitstream = manager.reconfigure(request.region, request.mode)
            return PolicyOutcome(
                ok=True, action="reconfigure", frames=bitstream.num_frames
            )
        except ReconfigurationError as exc:
            reason = str(exc)
        if not placement_fault_masked(manager, request.region):
            return PolicyOutcome(ok=False, action="blocked", detail=reason)
        if manager.active_module(request.region) is None:
            return PolicyOutcome(ok=False, action="blocked", detail=reason)
        try:
            moved = manager.relocate(request.region)
        except ReconfigurationError as exc:
            return PolicyOutcome(ok=False, action="blocked", detail=str(exc))
        try:
            bitstream = manager.reconfigure(request.region, request.mode)
        except ReconfigurationError as exc:
            # the move physically happened: charge its frames even though
            # the requested mode could not be loaded afterwards
            return PolicyOutcome(
                ok=False,
                action="blocked",
                frames=moved.num_frames,
                detail=str(exc),
            )
        return PolicyOutcome(
            ok=True,
            action="relocate+reconfigure",
            frames=moved.num_frames + bitstream.num_frames,
        )


class ResolveViaService(Policy):
    """Escalate to a live re-floorplan: one O-mode solve of the masked problem.

    Requests are first tried with :class:`RelocateFirst`; when that blocks,
    the fault-masked floorplanning problem is re-solved as one O-mode
    :class:`~repro.service.jobs.SolveJob` through
    :func:`~repro.service.executor.execute_job` (in-process, so
    deterministic), a fresh manager is built on the new floorplan,
    previously-loaded modules are reloaded at their new homes and the request
    is served there.  The sim charges ``resolve_latency`` virtual seconds for
    the re-solve, standing in for the solver's ``time_limit``.
    """

    name = "resolve-via-service"

    def __init__(
        self,
        options: Optional[SolverOptions] = None,
        weights: Optional[ObjectiveWeights] = None,
        resolve_latency: float = 1.0,
        relocation: Optional[RelocationSpec] = None,
    ) -> None:
        if resolve_latency < 0:
            raise ValueError("resolve_latency must be non-negative")
        self.options = options or SolverOptions(time_limit=30, mip_gap=0.05)
        self.weights = weights
        self.resolve_latency = float(resolve_latency)
        self.relocation = relocation
        self._fallback = RelocateFirst()
        self.resolve_count = 0

    # ------------------------------------------------------------------
    def apply(self, manager: ReconfigurationManager, request: ModeRequest) -> PolicyOutcome:
        outcome = self._fallback.apply(manager, request)
        if outcome.ok:
            return outcome
        # a re-floorplan can only fix placement problems, so don't burn a
        # solve on failures (unknown mode/region) it cannot change
        if not placement_fault_masked(manager, request.region):
            return outcome
        return self._resolve(manager, request, outcome.detail)

    def _relocation_spec(self, manager: ReconfigurationManager) -> Optional[RelocationSpec]:
        """Reuse the caller-provided spec or rebuild it from the floorplan."""
        if self.relocation is not None:
            return self.relocation
        copies: Dict[str, int] = {}
        for area in manager.floorplan.free_areas.values():
            if area.compatible_with is not None:
                copies[area.compatible_with] = copies.get(area.compatible_with, 0) + 1
        return RelocationSpec.as_constraint(copies) if copies else None

    def _resolve(
        self, manager: ReconfigurationManager, request: ModeRequest, reason: str
    ) -> PolicyOutcome:
        from repro.service.executor import execute_job
        from repro.service.jobs import SolveJob
        from repro.sim.faults import fault_masked_problem

        self.resolve_count += 1
        # faulty rectangles become forbidden fabric, so the re-solve places
        # everything on healthy tiles instead of re-deriving the broken plan
        problem = fault_masked_problem(
            manager.floorplan.problem, manager.faulty_rects
        )
        result = execute_job(
            SolveJob(
                problem=problem,
                relocation=self._relocation_spec(manager),
                mode="O",
                options=self.options,
                weights=self.weights,
            )
        )
        if not result.feasible or result.floorplan is None:
            return PolicyOutcome(
                ok=False,
                action="blocked",
                extra_time=self.resolve_latency,
                detail=f"{reason}; re-floorplan found no feasible placement",
            )

        from repro.floorplan.placement import Floorplan

        floorplan = Floorplan.from_dict(problem, result.floorplan)

        # the replacement manager keeps the same bitstream cache store
        # (counters and capacity persist across the swap; entries are
        # device-qualified, and the masked device has a new name, so old
        # bitstreams simply stop matching) and inherits the fault mask
        # without re-recording trace events
        fresh = ReconfigurationManager(
            floorplan,
            cache=manager.bitstream_cache,
            clock=manager.clock,
            allowed_modes=manager.allowed_modes,
        )
        # the retired device's bitstreams can never hit again (keys are
        # device-qualified) — purge them so they stop occupying LRU capacity
        fresh.bitstream_cache.drop_device(manager.device.name)
        for rect, detail in manager.faults:
            fresh.inject_fault(rect, detail=detail or "carried over", record=False)

        frames = 0
        # reload every module that was live before the re-floorplan, then the
        # requested mode; a placement that still collides with a fault blocks
        try:
            for region in floorplan.placements:
                if region == request.region:
                    continue
                active = manager.active_module(region)
                if active is not None:
                    frames += fresh.reconfigure(region, active).num_frames
            frames += fresh.reconfigure(request.region, request.mode).num_frames
        except ReconfigurationError as exc:
            return PolicyOutcome(
                ok=False,
                action="blocked",
                extra_time=self.resolve_latency,
                detail=f"re-floorplan placement rejected: {exc}",
            )
        return PolicyOutcome(
            ok=True,
            action="resolve+reconfigure",
            frames=frames,
            extra_time=self.resolve_latency,
            new_manager=fresh,
        )
