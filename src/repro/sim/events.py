"""The deterministic priority event queue.

Events are ordered by ``(time, kind, insertion sequence)``.
:class:`SimEventKind` is an :class:`~enum.IntEnum` whose value *is* its
same-instant priority — COMPLETE 0, REPAIR 1, FAULT 2, ARRIVAL 3 — so
completions free resources before repairs restore devices, repairs land
before faults strike, and faults land before new arrivals are admitted.  The
insertion sequence breaks the remaining ties FIFO, so two runs with the same
seeds pop events in exactly the same order.  The fleet simulation's flat
loop (:meth:`repro.capacity.fleet.FleetSimulation.run`) orders its plain
tuples by the same values.

The queue is a batched heap: pre-generated schedules (the arrival and fault
streams, known up front) enter through :meth:`EventQueue.push_batch`, which
sorts them once into a static run consumed by a cursor, while events
scheduled during the simulation (completions) go through :meth:`push` into a
small dynamic heap.  ``pop`` merges the two fronts.  With *n* pre-scheduled
events and *k* in-flight completions this replaces ``n`` heap sift-downs of
depth log(n+k) with one sort plus heap operations on a heap of size ~k —
the batched part pops by cursor increment.
"""

from __future__ import annotations

import enum
import heapq
from typing import Iterable, List, NamedTuple, Optional, Tuple


class SimEventKind(enum.IntEnum):
    """Kinds of simulator events; a value is its same-instant priority."""

    COMPLETE = 0
    REPAIR = 1
    FAULT = 2
    ARRIVAL = 3


class SimEvent(NamedTuple):
    """One scheduled simulator event."""

    time: float
    kind: SimEventKind
    seq: int
    payload: object = None


class EventQueue:
    """A batched heap of :class:`SimEvent` with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._run: List[tuple] = []  # sorted static run, consumed by cursor
        self._cursor = 0
        self._heap: List[tuple] = []  # dynamically scheduled events
        self._seq = 0

    def _entry(self, time: float, kind: SimEventKind, payload: object) -> tuple:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        return (time, kind, seq, SimEvent(time, kind, seq, payload))

    def push(self, time: float, kind: SimEventKind, payload: object = None) -> SimEvent:
        """Schedule one event; returns the stored record."""
        entry = self._entry(time, kind, payload)
        heapq.heappush(self._heap, entry)
        return entry[-1]

    def push_batch(
        self, items: Iterable[Tuple[float, SimEventKind, object]]
    ) -> List[SimEvent]:
        """Schedule a pre-generated batch of ``(time, kind, payload)`` items.

        Sequence numbers are assigned in input order (so equal-key items pop
        FIFO exactly as repeated :meth:`push` calls would), then the batch is
        sorted once and merged with whatever is left of the previous run.
        """
        entries = [self._entry(time, kind, payload) for time, kind, payload in items]
        entries.sort()
        remaining = self._run[self._cursor :]
        self._run = list(heapq.merge(remaining, entries)) if remaining else entries
        self._cursor = 0
        return [entry[-1] for entry in entries]

    def pop(self) -> SimEvent:
        """Remove and return the next event (earliest time wins)."""
        head = self._run[self._cursor] if self._cursor < len(self._run) else None
        if self._heap and (head is None or self._heap[0] < head):
            return heapq.heappop(self._heap)[-1]
        if head is None:
            raise IndexError("pop from an empty event queue")
        self._cursor += 1
        if self._cursor >= 8192 and self._cursor * 2 >= len(self._run):
            del self._run[: self._cursor]
            self._cursor = 0
        return head[-1]

    def peek(self) -> Optional[SimEvent]:
        """The next event without removing it (``None`` when empty)."""
        head = self._run[self._cursor] if self._cursor < len(self._run) else None
        if self._heap and (head is None or self._heap[0] < head):
            return self._heap[0][-1]
        return head[-1] if head is not None else None

    def __len__(self) -> int:
        return (len(self._run) - self._cursor) + len(self._heap)

    def __bool__(self) -> bool:
        return self._cursor < len(self._run) or bool(self._heap)
