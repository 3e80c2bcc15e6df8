"""Per-upstream circuit breaker (closed -> open -> half-open).

Replaces the router's bare ``down_cooldown`` flag.  The cooldown skipped a
replica for a fixed window after one failure, then hammered it again at full
rate.  The breaker opens on the first failure too, and adds **probing**:
after ``open_for`` seconds the circuit goes *half-open* and admits exactly
one trial request; its outcome closes the circuit (success) or re-opens it
for another window (failure), so a still-dead replica sees one probe per
window instead of a thundering retry herd.

The breaker is intentionally clock-injectable and lock-free: the router
drives it from a single event loop, and the worst cross-thread race (two
callers both admitted half-open) costs one extra probe, not correctness.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Track one upstream's health and gate requests to it.

    Parameters
    ----------
    open_for:
        Seconds the circuit stays open before admitting a half-open probe.
    clock:
        Monotonic-seconds source (injectable for deterministic tests).
    """

    def __init__(
        self,
        open_for: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if open_for <= 0:
            raise ValueError("open_for must be positive")
        self.open_for = open_for
        self.clock = clock
        self.opened_total = 0  # times the circuit transitioned closed->open
        self._opened_at: float | None = None  # None while closed
        self._probing = False  # a half-open trial is in flight

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (as of now)."""
        if self._opened_at is None:
            return CLOSED
        if self.clock() - self._opened_at >= self.open_for:
            return HALF_OPEN
        return OPEN

    def allow(self) -> bool:
        """May a request be sent to this upstream right now?

        Closed: always.  Open: never.  Half-open: exactly one caller is
        admitted as the probe; everyone else keeps seeing ``False`` until the
        probe's outcome is recorded.
        """
        state = self.state
        if state == CLOSED:
            return True
        if state == OPEN:
            return False
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        """A request to this upstream completed: close the circuit."""
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        """A request failed: open the circuit for a fresh window.

        A failed half-open probe re-opens it; only a closed -> open edge
        counts in ``opened_total``.
        """
        if self._opened_at is None:
            self.opened_total += 1
        self._opened_at = self.clock()
        self._probing = False
