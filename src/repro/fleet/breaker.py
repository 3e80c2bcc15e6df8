"""Per-upstream circuit breaker (closed -> open -> half-open).

Replaces the router's bare ``down_cooldown`` flag.  The cooldown treated every
failure the same — one refused connection and the replica was skipped for a
fixed window, then hammered again at full rate.  The breaker adds the two
missing behaviours:

* **failure accumulation** — the circuit opens only after
  ``failure_threshold`` *consecutive* failures (the fleet router opens on
  the first);
* **probing** — after ``open_for`` seconds the circuit goes *half-open* and
  admits exactly one trial request; its outcome closes the circuit (success)
  or re-opens it for another window (failure), so a still-dead replica sees
  one probe per window instead of a thundering retry herd.

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
    failure_threshold:
        Consecutive failures that open the circuit.  The fleet router uses
        ``1``: any failure opens.
    open_for:
        Seconds the circuit stays open before admitting a half-open probe.
    clock:
        Monotonic-seconds source (injectable for deterministic tests).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        open_for: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if open_for <= 0:
            raise ValueError("open_for must be positive")
        self.failure_threshold = failure_threshold
        self.open_for = open_for
        self.clock = clock
        self.consecutive_failures = 0
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
        self.consecutive_failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        """A request failed: accumulate, and (re)open past the threshold."""
        self.consecutive_failures += 1
        was_closed = self._opened_at is None
        if self._opened_at is not None or (
            self.consecutive_failures >= self.failure_threshold
        ):
            # a failed half-open probe re-opens for a fresh window
            self._opened_at = self.clock()
            self._probing = False
            if was_closed:
                self.opened_total += 1
