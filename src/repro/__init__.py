"""repro — relocation-aware MILP floorplanning for partially-reconfigurable FPGAs.

Reproduction of *Rabozzi et al., "Relocation-aware Floorplanning for
Partially-Reconfigurable FPGA-based Systems", IPDPSW 2015*.

The public API re-exported here is the surface a downstream user needs:

* device modelling (:mod:`repro.device`): tile types, devices, columnar
  partitioning, the device catalog;
* floorplanning (:mod:`repro.floorplan`): problems, the MILP solver facade
  (O and HO modes), metrics, verification;
* relocation (:mod:`repro.relocation`): compatibility predicates, relocation
  specs (constraint / metric), feasibility analysis;
* baselines (:mod:`repro.baselines`): greedy and annealing floorplanners;
* bitstreams and runtime (:mod:`repro.bitstream`, :mod:`repro.runtime`): the
  simulated relocation filter and a small partial-reconfiguration run-time;
* workloads (:mod:`repro.workloads`): the SDR case study and synthetic
  generators;
* analysis (:mod:`repro.analysis`): ASCII floorplan rendering and tables;
* solving service (:mod:`repro.service`): content-addressed solve caching,
  the one solve entry point (``execute_job``) and scenario sweeps;
* online simulation (:mod:`repro.sim`): discrete-event simulation of the
  runtime under stochastic traffic, fault injection and live
  re-floorplanning policies;
* serving (:mod:`repro.server`): the asyncio JSON-over-HTTP solve gateway
  with micro-batching, admission control and a load-testing harness.

The exports are lazy (PEP 562, through :mod:`repro._lazy`): ``import repro``
loads no subpackage, and each name imports the subpackage that defines it on
first access.  ``from repro import X``, ``from repro import *``,
``hasattr(repro, X)`` and ``dir(repro)`` work as with eager imports, but a
caller that needs only the simulator, such as ``python -m repro.capacity``,
no longer pays for scipy, the MILP layer or the serving stack.
``repro.floorplan``, ``repro.sim``, ``repro.fleet``, ``repro.server``,
``repro.service``, ``repro.milp``, ``repro.obs``, ``repro.relocation`` and
``repro.analysis`` export lazily the same way, so the fleet's router, which
needs only job decoding and fingerprints, loads no scipy either.

Quickstart::

    from repro import (
        sdr_problem, sdr2_spec, FloorplanSolver, SolverOptions, render_floorplan,
    )

    problem = sdr_problem()
    solver = FloorplanSolver(problem, relocation=sdr2_spec(), mode="HO",
                             options=SolverOptions(time_limit=60))
    report = solver.solve()
    print(report.summary())
    print(render_floorplan(report.floorplan))
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.device": [
        "FPGADevice",
        "TileType",
        "ResourceType",
        "ResourceVector",
        "Portion",
        "ForbiddenArea",
        "columnar_partition",
        "virtex5_fx70t_like",
        "virtex7_like",
        "zynq_like",
        "synthetic_device",
        "simple_two_type_device",
    ],
    "repro.floorplan": [
        "Rect",
        "Region",
        "IOPin",
        "Connection",
        "FloorplanProblem",
        "RegionPlacement",
        "Floorplan",
        "ObjectiveWeights",
        "SequencePair",
        "FloorplanSolver",
        "SolveReport",
        "evaluate_floorplan",
        "verify_floorplan",
    ],
    "repro.milp": ["Model", "solve", "SolverOptions", "SolveStatus"],
    "repro.relocation": [
        "RelocationSpec",
        "RelocationRequest",
        "areas_compatible",
        "enumerate_free_compatible_areas",
        "feasibility_analysis",
    ],
    "repro.baselines": [
        "first_fit_floorplan",
        "tessellation_floorplan",
        "annealing_floorplan",
    ],
    "repro.bitstream": [
        "PartialBitstream",
        "generate_bitstream",
        "relocate_bitstream",
        "RelocationError",
        "ConfigurationMemory",
    ],
    "repro.runtime": [
        "ReconfigurationManager",
        "ReconfigurationError",
        "RuntimeTrace",
    ],
    "repro.workloads": [
        "sdr_problem",
        "sdr2_spec",
        "sdr3_spec",
        "SyntheticWorkloadConfig",
        "synthetic_problem",
    ],
    "repro.analysis": ["render_floorplan", "render_partition"],
    "repro.service": [
        "SolveJob",
        "SolveCache",
        "sweep_jobs",
        "execute_job",
    ],
    "repro.server": ["SolveGateway", "GatewayConfig", "BackgroundGateway"],
    "repro.fleet": [
        "HashRing",
        "FleetConfig",
        "FleetManager",
        "RouterConfig",
        "FleetRouter",
        "BackgroundFleet",
    ],
    "repro.sim": [
        "SimulationEngine",
        "SimConfig",
        "PoissonTraffic",
        "InhomogeneousPoissonTraffic",
        "sinusoidal_rate",
        "MMPPTraffic",
        "TraceReplayTraffic",
        "ScheduledFaults",
        "RandomFaults",
        "ReconfigureInPlace",
        "RelocateFirst",
        "ResolveViaService",
    ],
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
