"""What must stay true while the fleet is being tortured.

The checker consumes per-request :class:`RequestOutcome` records (status,
latency, response headers, parsed body) plus the fault windows the runner
observed, and returns every :class:`InvariantViolation` it finds:

1. **No request lost** — every client request gets an HTTP response.
   Connection-level failures (recorded as status 599) mean the routing and
   retry layers dropped a request on the floor.
2. **No corrupt result served** — every 200 carries a structurally sound
   result document (fingerprint, ``result.status`` from the solver's
   vocabulary, and a feasible result whenever the body says ``degraded``);
   corruption injected into the cache tier must surface as a re-solve, never
   as a response.
3. **Honest shedding** — every shed or timeout response (429/503/504)
   carries a ``Retry-After`` header, so well-behaved clients can back off
   instead of hammering an overloaded fleet.
4. **Bounded tail under faults** — the p99 latency of requests *sent inside
   a fault window* stays under ``p99_bound_s``; degraded-mode answers are
   acceptable during faults, multi-minute stalls are not.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "RequestOutcome",
    "InvariantViolation",
    "SHED_STATUSES",
    "VALID_RESULT_STATUSES",
    "check_invariants",
]

SHED_STATUSES = (429, 503, 504)
LOST_STATUS = 599  # loadgen convention: connection-level failure
VALID_RESULT_STATUSES = (
    "optimal", "feasible", "infeasible", "unbounded", "time_limit", "error",
)


@dataclasses.dataclass(frozen=True)
class RequestOutcome:
    """One client request as the chaos traffic driver saw it."""

    offset: float  # seconds from run start, at send
    status: int
    latency_s: float
    headers: Mapping[str, str]  # lower-cased names
    body: object


@dataclasses.dataclass(frozen=True)
class InvariantViolation:
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


def _sound_result(body: object) -> bool:
    if not isinstance(body, dict):
        return False
    result = body.get("result")
    if not isinstance(result, dict):
        return False
    return (
        bool(body.get("fingerprint"))
        and result.get("status") in VALID_RESULT_STATUSES
        # a best-effort answer is only worth serving with a verified floorplan
        and (not body.get("degraded") or result.get("feasible") is True)
    )


def check_invariants(
    outcomes: Sequence[RequestOutcome],
    fault_windows: Sequence[Tuple[float, float]] = (),
    p99_bound_s: float = 30.0,
) -> List[InvariantViolation]:
    """Every violated invariant, empty when the run was clean."""
    from repro.sim.stats import percentile

    violations: List[InvariantViolation] = []

    lost = sum(1 for outcome in outcomes if outcome.status == LOST_STATUS)
    if lost:
        violations.append(InvariantViolation(
            "no_request_lost",
            f"{lost} of {len(outcomes)} requests died at the connection level",
        ))

    unsound = [
        outcome for outcome in outcomes
        if outcome.status == 200 and not _sound_result(outcome.body)
    ]
    if unsound:
        violations.append(InvariantViolation(
            "no_corrupt_result",
            f"{len(unsound)} 200-responses carried a malformed result "
            f"document (first: {unsound[0].body!r:.200})",
        ))

    naked: Dict[int, int] = {}
    for outcome in outcomes:
        if outcome.status in SHED_STATUSES and "retry-after" not in outcome.headers:
            naked[outcome.status] = naked.get(outcome.status, 0) + 1
    if naked:
        violations.append(InvariantViolation(
            "retry_after_on_shed",
            "shed responses without Retry-After: "
            + ", ".join(f"{count}x {status}" for status, count in sorted(naked.items())),
        ))

    in_window = [
        outcome.latency_s
        for outcome in outcomes
        if outcome.status != LOST_STATUS
        and any(start <= outcome.offset <= end for start, end in fault_windows)
    ]
    if in_window:
        p99 = percentile(in_window, 99.0)
        if p99 > p99_bound_s:
            violations.append(InvariantViolation(
                "bounded_tail_under_faults",
                f"p99 of {len(in_window)} in-fault-window requests is "
                f"{p99:.2f}s, bound {p99_bound_s:.2f}s",
            ))

    return violations
