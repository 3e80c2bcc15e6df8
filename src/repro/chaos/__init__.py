"""Chaos harness: seeded fault injection against the live serving fleet.

The simulator's fault plans (:mod:`repro.sim.faults`) break *virtual*
fabric under *virtual* time; this package breaks the real thing — replica
processes get killed, SIGSTOPped and slowed, the shared cache tier gets
corrupted and hijacked — while closed-loop client traffic keeps flowing
and an invariant checker judges what the clients actually experienced.

Quickstart::

    from repro.chaos import ChaosEvent, ChaosPlan, KillReplica, run_chaos

    report = run_chaos(
        ChaosPlan([ChaosEvent(1.0, KillReplica(0))]),
        replicas=2, horizon=6.0,
    )
    print(report.format_report())
    assert report.ok

or from the command line (the CI ``chaos-smoke`` job)::

    python -m repro.chaos --replicas 2 --horizon 8 --rate 0.5 --seed 7
"""

from repro.chaos.actions import (
    ChaosAction,
    ChaosContext,
    CorruptCacheEntry,
    FillCacheDir,
    KillReplica,
    PauseReplica,
    SlowReplica,
)
from repro.chaos.invariants import (
    InvariantViolation,
    RequestOutcome,
    SHED_STATUSES,
    check_invariants,
)
from repro.chaos.plan import ChaosEvent, ChaosPlan, random_plan
from repro.chaos.runner import ChaosReport, run_chaos

__all__ = [
    # actions
    "ChaosAction",
    "ChaosContext",
    "KillReplica",
    "PauseReplica",
    "SlowReplica",
    "CorruptCacheEntry",
    "FillCacheDir",
    # plan
    "ChaosEvent",
    "ChaosPlan",
    "random_plan",
    # invariants
    "RequestOutcome",
    "InvariantViolation",
    "SHED_STATUSES",
    "check_invariants",
    # runner
    "ChaosReport",
    "run_chaos",
]
