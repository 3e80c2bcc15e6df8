"""Composable fault actions against a running fleet.

Each action is an ``apply``/``revert`` pair over a :class:`ChaosContext`
(the fleet's replica manager plus the shared cache-tier directory).  Actions
are deliberately *process-external*: they signal replica subprocesses and
mutilate the on-disk cache tier exactly the way a hostile production
environment would, with no cooperation from the code under test.

The catalogue:

* :class:`KillReplica` — SIGKILL; the supervisor restarts it after
  (jittered) backoff, the router's retries mask the gap.
* :class:`PauseReplica` — SIGSTOP.  The process still polls as *alive*, so
  the supervisor will not replace it: this is the wedged-but-alive shape,
  whose requests wait out the pause and must still be answered.
* :class:`SlowReplica` — latency injection via a SIGSTOP/SIGCONT duty
  cycle, stretching every in-flight request without ever failing one.
* :class:`CorruptCacheEntry` — overwrite a stored ``<fp>.json`` with
  garbage; the cache must treat it as a miss (counted), never serve it.
* :class:`FillCacheDir` — hijack the cache-tier path itself (the directory
  is replaced by a plain file, so every mkdir/open under it fails with
  ``OSError``), simulating a full or remounted disk; stores must degrade to
  counted errors, not request failures.
"""

from __future__ import annotations

import abc
import dataclasses
import threading
from pathlib import Path
from typing import Optional

from repro.fleet.manager import FleetManager

__all__ = [
    "ChaosContext",
    "ChaosAction",
    "KillReplica",
    "PauseReplica",
    "SlowReplica",
    "CorruptCacheEntry",
    "FillCacheDir",
]

_GARBAGE = b'{"chaos": "not a result'  # truncated JSON: parse must fail


@dataclasses.dataclass
class ChaosContext:
    """What an action may touch: the replica manager and the cache tier."""

    manager: FleetManager
    cache_dir: Path


class ChaosAction(abc.ABC):
    """One revertible fault.  ``apply`` may stash state for ``revert``;
    ``revert`` must be safe to call once after a successful ``apply`` even
    when the fault already self-healed (supervisor restart, reclaim)."""

    @property
    def name(self) -> str:
        return type(self).__name__

    @abc.abstractmethod
    def apply(self, ctx: ChaosContext) -> None:
        """Inject the fault."""

    def revert(self, ctx: ChaosContext) -> None:  # noqa: B027 - optional hook
        """Heal the fault (default: nothing to heal)."""


class KillReplica(ChaosAction):
    """SIGKILL one replica; recovery is the supervisor's job."""

    def __init__(self, index: int) -> None:
        self.index = index

    @property
    def name(self) -> str:
        return f"KillReplica({self.index})"

    def apply(self, ctx: ChaosContext) -> None:
        ctx.manager.kill_replica(self.index)


class PauseReplica(ChaosAction):
    """SIGSTOP one replica until revert — alive to the supervisor, dead to
    everyone waiting on it."""

    def __init__(self, index: int) -> None:
        self.index = index

    @property
    def name(self) -> str:
        return f"PauseReplica({self.index})"

    def apply(self, ctx: ChaosContext) -> None:
        ctx.manager.pause_replica(self.index)

    def revert(self, ctx: ChaosContext) -> None:
        ctx.manager.resume_replica(self.index)


class SlowReplica(ChaosAction):
    """Stretch one replica's latency with a SIGSTOP/SIGCONT duty cycle.

    The replica spends ``stall`` of every ``period`` seconds frozen, so every
    request it serves slows by roughly ``stall / period`` without any request
    actually failing — the shape of a CPU-starved or thrashing node.
    """

    def __init__(self, index: int, stall: float = 0.05, period: float = 0.15) -> None:
        if not 0 < stall < period:
            raise ValueError("need 0 < stall < period")
        self.index = index
        self.stall = stall
        self.period = period
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def name(self) -> str:
        return f"SlowReplica({self.index})"

    def apply(self, ctx: ChaosContext) -> None:
        stop = self._stop = threading.Event()

        def cycle() -> None:
            while not stop.wait(self.period - self.stall):
                ctx.manager.pause_replica(self.index)
                if stop.wait(self.stall):
                    break
                ctx.manager.resume_replica(self.index)
            ctx.manager.resume_replica(self.index)  # never leave it frozen

        self._thread = threading.Thread(
            target=cycle, name=f"repro-chaos-slow-{self.index}", daemon=True
        )
        self._thread.start()

    def revert(self, ctx: ChaosContext) -> None:
        if self._stop is not None:
            self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        ctx.manager.resume_replica(self.index)


class CorruptCacheEntry(ChaosAction):
    """Overwrite one stored cache entry with garbage bytes.

    The cache layer must answer the next lookup with a counted miss (and
    delete the carcass), never serve the corruption.  Revert unlinks the
    entry if the cache has not already cleaned it up.
    """

    def __init__(self) -> None:
        self._victim: Optional[Path] = None

    def apply(self, ctx: ChaosContext) -> None:
        entries = sorted(ctx.cache_dir.glob("*.json"))
        if not entries:
            return  # nothing stored yet: the fault lands on empty air
        self._victim = entries[0]
        try:
            self._victim.write_bytes(_GARBAGE)
        except OSError:
            self._victim = None

    def revert(self, ctx: ChaosContext) -> None:
        if self._victim is not None:
            try:
                self._victim.unlink()
            except OSError:
                pass  # the cache's own corrupt-entry cleanup beat us to it


class FillCacheDir(ChaosAction):
    """Make the cache-tier path unusable, the way a full or remounted disk
    would.

    ``chmod`` is useless here (tests run as root), so the directory is moved
    aside and replaced by a plain *file*: every ``mkdir``/``open`` under the
    path now raises ``OSError``, which the cache layer must absorb as
    ``store_errors`` while requests keep succeeding from memory and local
    solves.
    """

    def __init__(self) -> None:
        self._parked: Optional[Path] = None

    def apply(self, ctx: ChaosContext) -> None:
        parked = ctx.cache_dir.parent / (ctx.cache_dir.name + ".chaos-parked")
        try:
            ctx.cache_dir.rename(parked)
            ctx.cache_dir.write_bytes(b"chaos: cache tier unavailable\n")
        except OSError:
            return
        self._parked = parked

    def revert(self, ctx: ChaosContext) -> None:
        if self._parked is None:
            return
        try:
            ctx.cache_dir.unlink()
            self._parked.rename(ctx.cache_dir)
        except OSError:
            pass
        self._parked = None
