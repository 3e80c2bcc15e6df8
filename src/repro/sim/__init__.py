"""Discrete-event online reconfiguration simulation.

This package turns the :mod:`repro.runtime` layer into a measurable online
system: stochastic traffic (:mod:`~repro.sim.traffic`) emits timed
mode-activation requests per region, a fault plan (:mod:`~repro.sim.faults`)
breaks fabric under live modules, a decision policy
(:mod:`~repro.sim.policies`) serves each request — reconfigure in place,
relocate into floorplanner-reserved free areas, or re-floorplan live with one
O-mode :mod:`repro.service` solve — and the engine
(:mod:`~repro.sim.engine`) plays everything on seeded virtual time with
reconfiguration-port contention and per-region busy periods.  Statistics
(:mod:`~repro.sim.stats`) aggregate into the latency/utilization tables of
:mod:`repro.analysis`.

Quickstart::

    from repro.sim import (
        PoissonTraffic, ScheduledFaults, RelocateFirst,
        SimulationEngine, SimConfig,
    )

    engine = SimulationEngine(
        manager,
        traffic=PoissonTraffic(regions, rate=5.0, seed=7),
        policy=RelocateFirst(),
        faults=ScheduledFaults([(2.0, "beta")]),
        config=SimConfig(horizon=60.0),
    )
    result = engine.run()
    print(result.format_report())
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sim.clock": ["VirtualClock", "SimTimeError"],
    "repro.sim.events": ["EventQueue", "SimEvent", "SimEventKind"],
    "repro.sim.traffic": [
        "TrafficModel",
        "ModeRequest",
        "PoissonTraffic",
        "InhomogeneousPoissonTraffic",
        "MMPPTraffic",
        "TraceReplayTraffic",
        "sinusoidal_rate",
        "batched_poisson_times",
    ],
    "repro.sim.faults": [
        "FaultPlan",
        "FaultEvent",
        "ScheduledFaults",
        "RandomFaults",
        "fault_masked_problem",
        "poisson_times",
    ],
    "repro.sim.policies": [
        "Policy",
        "PolicyOutcome",
        "ReconfigureInPlace",
        "RelocateFirst",
        "ResolveViaService",
        "placement_fault_masked",
    ],
    "repro.sim.engine": ["SimulationEngine", "SimConfig", "SimResult"],
    "repro.sim.stats": ["SimStats", "RequestRecord", "percentile", "histogram"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
