"""Run a chaos plan against a live fleet under client load, and judge it.

The runner owns the whole experiment:

1. spawn a :class:`~repro.fleet.harness.BackgroundFleet` (replica processes
   plus router frontend) on a fresh shared cache dir;
2. start closed-loop client traffic against the router on a background
   thread, recording every response's status, latency and headers;
3. play the :class:`~repro.chaos.plan.ChaosPlan` on the main thread —
   apply each action at its instant, revert it after its duration, and
   revert anything still outstanding when the horizon ends;
4. stop traffic, run the :mod:`~repro.chaos.invariants` checker over the
   recorded outcomes and fault windows, and fold everything into a
   :class:`ChaosReport` with a pass/fail verdict.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.actions import ChaosContext
from repro.chaos.invariants import (
    InvariantViolation,
    RequestOutcome,
    SHED_STATUSES,
    check_invariants,
)
from repro.chaos.plan import ChaosEvent, ChaosPlan

__all__ = ["ChaosReport", "run_chaos"]


@dataclasses.dataclass
class ChaosReport:
    """Everything one chaos run produced, plus the verdict."""

    horizon: float
    replicas: int
    outcomes: List[RequestOutcome]
    violations: List[InvariantViolation]
    applied: List[Tuple[float, str]]  # (instant, action name)
    fault_windows: List[Tuple[float, float]]
    restarts: int

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    def status_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def shed(self) -> int:
        return sum(
            1 for outcome in self.outcomes if outcome.status in SHED_STATUSES
        )

    @property
    def degraded(self) -> int:
        return sum(
            1 for outcome in self.outcomes
            if isinstance(outcome.body, dict) and outcome.body.get("degraded")
        )

    def p99_s(self) -> float:
        from repro.sim.stats import percentile

        latencies = [
            outcome.latency_s for outcome in self.outcomes if outcome.status != 599
        ]
        return percentile(latencies, 99.0) if latencies else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "verdict": "PASS" if self.ok else "FAIL",
            "horizon_s": self.horizon,
            "replicas": self.replicas,
            "requests": self.sent,
            "statuses": {str(k): v for k, v in self.status_counts().items()},
            "shed": self.shed,
            "degraded": self.degraded,
            "p99_s": round(self.p99_s(), 4),
            "restarts": self.restarts,
            "faults": [
                {"t": round(when, 3), "action": name} for when, name in self.applied
            ],
            "violations": [str(violation) for violation in self.violations],
        }

    def format_report(self) -> str:
        lines = [
            f"chaos verdict: {'PASS' if self.ok else 'FAIL'}",
            f"  {self.sent} requests over {self.horizon:.1f}s against "
            f"{self.replicas} replicas ({self.restarts} restarts)",
            f"  statuses: "
            + ", ".join(f"{count}x {status}"
                        for status, count in self.status_counts().items()),
            f"  shed={self.shed} degraded={self.degraded} p99={self.p99_s():.2f}s",
            f"  faults applied: "
            + (", ".join(f"{name}@{when:.1f}s" for when, name in self.applied)
               or "none"),
        ]
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
async def _traffic(
    host: str,
    port: int,
    payloads: Sequence[Dict[str, object]],
    clients: int,
    stop: threading.Event,
    outcomes: List[RequestOutcome],
    t0: float,
) -> None:
    from repro.server.loadgen import GatewayClient

    async def one_client(index: int) -> None:
        client = GatewayClient(host, port, client_id=f"chaos-{index}")
        connected = False
        step = 0
        while not stop.is_set():
            payload = payloads[(index + step) % len(payloads)]
            step += 1
            offset = time.perf_counter() - t0
            started = time.perf_counter()
            try:
                if not connected:
                    await client.connect()
                    connected = True
                status, body = await client.solve(payload)
                headers = dict(client.last_headers)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await client.close()
                connected = False
                outcomes.append(RequestOutcome(
                    offset, 599, time.perf_counter() - started, {}, None
                ))
                await asyncio.sleep(0.05)
                continue
            outcomes.append(RequestOutcome(
                offset, status, time.perf_counter() - started, headers, body
            ))
            if status in SHED_STATUSES:
                # back off a token amount so a shedding fleet is not
                # busy-spun; honoring the full Retry-After would starve
                # the run of samples
                await asyncio.sleep(0.05)
        await client.close()

    await asyncio.gather(*(one_client(index) for index in range(clients)))


def _traffic_thread(
    host: str,
    port: int,
    payloads: Sequence[Dict[str, object]],
    clients: int,
    stop: threading.Event,
    outcomes: List[RequestOutcome],
    t0: float,
) -> threading.Thread:
    thread = threading.Thread(
        target=lambda: asyncio.run(
            _traffic(host, port, payloads, clients, stop, outcomes, t0)
        ),
        name="repro-chaos-traffic",
        daemon=True,
    )
    thread.start()
    return thread


# ----------------------------------------------------------------------
# the experiment
# ----------------------------------------------------------------------
#: How long the traffic clients get to finish in-flight requests at the end.
_DRAIN_GRACE_S = 30.0


def run_chaos(
    plan: ChaosPlan,
    replicas: int = 2,
    horizon: float = 8.0,
    clients: int = 4,
    payloads: Optional[Sequence[Dict[str, object]]] = None,
    cache_dir: Optional[str] = None,
    server_args: Sequence[str] = (),
    p99_bound_s: float = 30.0,
) -> ChaosReport:
    """Execute ``plan`` against a fresh fleet under closed-loop load."""
    import tempfile

    from repro.fleet.harness import BackgroundFleet
    from repro.server.loadgen import demo_payloads

    if horizon <= 0:
        raise ValueError("horizon must be positive")
    payloads = list(payloads) if payloads else demo_payloads(unique=3)
    cache_dir = cache_dir or tempfile.mkdtemp(prefix="repro-chaos-")

    outcomes: List[RequestOutcome] = []
    applied: List[Tuple[float, str]] = []
    windows: List[Tuple[float, float]] = []

    with BackgroundFleet(
        replicas=replicas, cache_dir=cache_dir, server_args=tuple(server_args)
    ) as fleet:
        ctx = ChaosContext(manager=fleet.manager, cache_dir=Path(cache_dir))

        # interleave applies and reverts into one sorted timeline;
        # reverts sort after applies at the same instant
        timeline: List[Tuple[float, int, str, ChaosEvent]] = []
        for event in plan.events(horizon):
            timeline.append((event.time, 0, "apply", event))
            if event.duration is not None:
                timeline.append((
                    min(event.time + event.duration, horizon), 1, "revert", event,
                ))
        timeline.sort(key=lambda item: (item[0], item[1]))

        stop = threading.Event()
        t0 = time.perf_counter()
        traffic = _traffic_thread(
            fleet.host, fleet.port, payloads, clients, stop, outcomes, t0
        )

        outstanding: List[Tuple[float, ChaosEvent]] = []
        try:
            for when, _, kind, event in timeline:
                delay = when - (time.perf_counter() - t0)
                if delay > 0:
                    time.sleep(delay)
                if kind == "apply":
                    event.action.apply(ctx)
                    applied.append((when, event.action.name))
                    outstanding.append((when, event))
                else:
                    event.action.revert(ctx)
                    outstanding = [
                        (start, pending) for start, pending in outstanding
                        if pending is not event
                    ]
                    windows.append((event.time, when))
            remaining = horizon - (time.perf_counter() - t0)
            if remaining > 0:
                time.sleep(remaining)
        finally:
            # heal anything still broken (newest first), then stop traffic;
            # in-flight requests to a just-resumed replica get to finish
            for start, event in reversed(outstanding):
                event.action.revert(ctx)
                windows.append((start, horizon))
            stop.set()
            traffic.join(timeout=_DRAIN_GRACE_S)

        restarts = fleet.manager.total_restarts

    violations = check_invariants(
        outcomes, fault_windows=windows, p99_bound_s=p99_bound_s
    )
    return ChaosReport(
        horizon=horizon,
        replicas=replicas,
        outcomes=outcomes,
        violations=violations,
        applied=applied,
        fault_windows=windows,
        restarts=restarts,
    )
