"""Capacity planning: minimum fleet size meeting an SLO, and capacity curves.

:func:`plan_min_devices` answers "how many devices for this traffic at this
SLO": it doubles the fleet size until the SLO passes, then binary-searches
the gap.  Serving capacity is monotone in fleet size for every dispatcher
shipped here (an added device only receives work others would have queued or
shed), which is what makes the binary search sound; every evaluated size is
recorded so the report can show the whole search trajectory.

:func:`capacity_curve` sweeps rate multipliers over the same scenario,
re-planning at each offered load — the "devices vs. load" curve a deployment
sizes its fleet from.

Everything is seeded and deterministic: the same scenario produces the same
evaluations, the same minimum, and (through :mod:`repro.capacity.report`)
byte-identical reports.  So one plan draws its arrival stream, and each
device's fault times, once and replays them in every evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

from repro.capacity.dispatch import make_dispatcher
from repro.capacity.fleet import DeviceProfile, FleetConfig, FleetResult, FleetSimulation
from repro.sim.faults import FaultPlan, RandomFaults
from repro.sim.traffic import PoissonTraffic, TrafficModel

__all__ = [
    "CapacitySLO",
    "CapacityScenario",
    "Evaluation",
    "PlanOutcome",
    "evaluate_slo",
    "plan_min_devices",
    "capacity_curve",
]


@dataclasses.dataclass(frozen=True)
class CapacitySLO:
    """The service-level objective a fleet size must meet.

    * ``max_p99_latency_s`` — served p99 arrival-to-finish latency cap;
    * ``max_blocking`` — cap on the fraction of offered requests shed or
      failed;
    * ``min_throughput_fraction`` — served/offered floor (throughput SLO
      expressed relative to offered load, so one knob works across the whole
      rate sweep).
    """

    max_p99_latency_s: float = 0.2
    max_blocking: float = 0.01
    min_throughput_fraction: float = 0.95

    def __post_init__(self) -> None:
        if self.max_p99_latency_s <= 0:
            raise ValueError("max_p99_latency_s must be positive")
        if not 0 <= self.max_blocking <= 1:
            raise ValueError("max_blocking must be within [0, 1]")
        if not 0 < self.min_throughput_fraction <= 1:
            raise ValueError("min_throughput_fraction must be within (0, 1]")


@dataclasses.dataclass(frozen=True)
class CapacityScenario:
    """One plannable workload: device type, traffic shape, failure regime."""

    profile: DeviceProfile
    rate: float  # offered requests per virtual second
    horizon: float = 100.0
    seed: int = 0
    modes_per_region: int = 3
    dispatcher: str = "least-loaded"
    fault_rate: float = 0.0  # per-device Poisson fault rate (0 = no faults)
    repair_time: float = 5.0
    queue_capacity: Optional[int] = 64

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.fault_rate < 0:
            raise ValueError("fault_rate must be non-negative")

    def build(self, num_devices: int, rate_multiplier: float = 1.0) -> FleetSimulation:
        """The seeded fleet simulation for one candidate size."""
        traffic = PoissonTraffic(
            self.profile.regions(),
            rate=self.rate * rate_multiplier,
            modes_per_region=self.modes_per_region,
            seed=self.seed,
        )
        fault_plans: Dict[str, FaultPlan] = {}
        if self.fault_rate > 0:
            for index in range(num_devices):
                name = f"{self.profile.name}-{index:03d}"
                fault_plans[name] = RandomFaults(
                    [name], rate=self.fault_rate, seed=self.seed + 1000 + index
                )
        return FleetSimulation(
            profile=self.profile,
            num_devices=num_devices,
            traffic=traffic,
            dispatcher=make_dispatcher(self.dispatcher),
            fault_plans=fault_plans,
            config=FleetConfig(
                horizon=self.horizon,
                queue_capacity=self.queue_capacity,
                repair_time=self.repair_time,
            ),
        )


class _Replay(TrafficModel, FaultPlan):
    """A seeded stream's first draw, replayed as traffic or as a fault plan.

    Every evaluation of one plan draws the same arrivals (same seed, rate and
    horizon) and gives device ``i`` the same faults (seed ``seed + 1000 +
    i``), so :func:`plan_min_devices` draws each stream once, and
    :func:`capacity_curve` draws each device's faults once for all its
    multipliers.
    """

    def __init__(self, drawn: list) -> None:
        self.drawn = drawn

    def generate(self, horizon: float) -> list:
        return self.drawn

    events = generate


@dataclasses.dataclass(frozen=True)
class Evaluation:
    """One evaluated fleet size: metrics plus the SLO verdict."""

    num_devices: int
    ok: bool
    failures: tuple
    metrics: Dict[str, float]


@dataclasses.dataclass(frozen=True)
class PlanOutcome:
    """The result of one minimum-fleet-size search."""

    min_devices: Optional[int]  # None: SLO unreachable within max_devices
    evaluations: tuple  # every Evaluation, in search order
    slo: CapacitySLO

    def evaluation_for(self, num_devices: int) -> Optional[Evaluation]:
        for evaluation in self.evaluations:
            if evaluation.num_devices == num_devices:
                return evaluation
        return None


def evaluate_slo(result: FleetResult, slo: CapacitySLO) -> Evaluation:
    """Check one fleet run against the SLO; lists every violated clause."""
    metrics = result.metrics()
    failures: List[str] = []
    throughput_fraction = metrics["throughput_fraction"]
    if metrics["p99_latency_s"] > slo.max_p99_latency_s:
        failures.append(
            f"p99 latency {metrics['p99_latency_s']:.6f}s > {slo.max_p99_latency_s}s"
        )
    if metrics["blocking_probability"] > slo.max_blocking:
        failures.append(
            f"blocking {metrics['blocking_probability']:.6f} > {slo.max_blocking}"
        )
    if throughput_fraction < slo.min_throughput_fraction:
        failures.append(
            f"throughput fraction {throughput_fraction:.6f} "
            f"< {slo.min_throughput_fraction}"
        )
    return Evaluation(
        num_devices=result.num_devices,
        ok=not failures,
        failures=tuple(failures),
        metrics=metrics,
    )


def plan_min_devices(
    scenario: CapacityScenario,
    slo: CapacitySLO,
    max_devices: int = 1024,
    rate_multiplier: float = 1.0,
    faults: Optional[Dict[str, FaultPlan]] = None,
) -> PlanOutcome:
    """The minimum fleet size meeting ``slo``, by doubling + binary search.

    ``faults`` maps a device name to its drawn fault events; a device missing
    from it is drawn and added.  The draws do not depend on the rate
    multiplier, so plans of one scenario at several multipliers can share
    one mapping (:func:`capacity_curve` does).
    """
    if max_devices <= 0:
        raise ValueError("max_devices must be positive")
    faults = {} if faults is None else faults
    evaluations: List[Evaluation] = []
    horizon = scenario.horizon
    traffic: Optional[_Replay] = None

    def evaluate(num_devices: int) -> Evaluation:
        nonlocal traffic
        simulation = scenario.build(num_devices, rate_multiplier)
        if traffic is None:
            traffic = _Replay(simulation.traffic.generate(horizon))
        simulation.traffic = traffic
        for name, plan in simulation.fault_plans.items():
            if name not in faults:
                faults[name] = _Replay(plan.events(horizon))
            simulation.fault_plans[name] = faults[name]
        result = simulation.run()
        evaluation = evaluate_slo(result, slo)
        evaluations.append(evaluation)
        return evaluation

    # doubling phase: find the first passing power of two (or give up)
    size = 1
    passing: Optional[int] = None
    failing = 0
    while size <= max_devices:
        evaluation = evaluate(size)
        if evaluation.ok:
            passing = size
            break
        failing = size
        size *= 2
    if passing is None:
        if failing < max_devices:  # last chance at the cap itself
            evaluation = evaluate(max_devices)
            if evaluation.ok:
                passing = max_devices
                failing = max(failing, max_devices // 2)
        if passing is None:
            return PlanOutcome(
                min_devices=None, evaluations=tuple(evaluations), slo=slo
            )

    # binary search (failing, passing]
    lo, hi = failing, passing
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluate(mid).ok:
            hi = mid
        else:
            lo = mid
    return PlanOutcome(min_devices=hi, evaluations=tuple(evaluations), slo=slo)


def capacity_curve(
    scenario: CapacityScenario,
    slo: CapacitySLO,
    multipliers: Sequence[float],
    max_devices: int = 1024,
    planned: Optional[Mapping[float, PlanOutcome]] = None,
    faults: Optional[Dict[str, FaultPlan]] = None,
) -> List[Dict[str, object]]:
    """Minimum fleet size at each rate multiplier (the capacity curve).

    Each distinct multiplier is planned once.  ``planned`` supplies outcomes
    the caller already has, keyed by multiplier, for the same ``slo`` and
    ``max_devices`` (the CLI passes its multiplier-1.0 plan), and ``faults``
    the fault draws those plans made (see :func:`plan_min_devices`); every
    plan shares the one mapping, so each device's faults are drawn once.
    """
    outcomes: Dict[float, PlanOutcome] = dict(planned or {})
    faults = {} if faults is None else faults
    curve: List[Dict[str, object]] = []
    for multiplier in multipliers:
        if multiplier <= 0:
            raise ValueError("rate multipliers must be positive")
        outcome = outcomes.get(multiplier)
        if outcome is None:
            outcome = outcomes[multiplier] = plan_min_devices(
                scenario, slo, max_devices, multiplier, faults
            )
        point: Dict[str, object] = {
            "rate_multiplier": float(multiplier),
            "offered_rate": scenario.rate * multiplier,
            "min_devices": outcome.min_devices,
        }
        if outcome.min_devices is not None:
            evaluation = outcome.evaluation_for(outcome.min_devices)
            point["metrics"] = evaluation.metrics if evaluation else {}
        curve.append(point)
    return curve
