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
* batch service (:mod:`repro.service`): content-addressed solve caching,
  parallel batch execution, portfolio racing and scenario sweeps;
* online simulation (:mod:`repro.sim`): discrete-event simulation of the
  runtime under stochastic traffic, fault injection and live
  re-floorplanning policies;
* serving (:mod:`repro.server`): the asyncio JSON-over-HTTP solve gateway
  with micro-batching, admission control and a load-testing harness.

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

from repro.device import (
    FPGADevice,
    ForbiddenArea,
    Portion,
    ResourceType,
    ResourceVector,
    TileType,
    columnar_partition,
    simple_two_type_device,
    synthetic_device,
    virtex5_fx70t_like,
    virtex7_like,
    zynq_like,
)
from repro.floorplan import (
    Connection,
    Floorplan,
    FloorplanProblem,
    FloorplanSolver,
    IOPin,
    ObjectiveWeights,
    Rect,
    Region,
    RegionPlacement,
    SequencePair,
    SolveReport,
    evaluate_floorplan,
    verify_floorplan,
)
from repro.milp import Model, SolverOptions, SolveStatus, solve
from repro.relocation import (
    RelocationRequest,
    RelocationSpec,
    areas_compatible,
    enumerate_free_compatible_areas,
    feasibility_analysis,
)
from repro.baselines import (
    annealing_floorplan,
    first_fit_floorplan,
    tessellation_floorplan,
)
from repro.bitstream import (
    ConfigurationMemory,
    PartialBitstream,
    RelocationError,
    generate_bitstream,
    relocate_bitstream,
)
from repro.runtime import (
    ReconfigurationError,
    ReconfigurationManager,
    RuntimeTrace,
)
from repro.workloads import (
    SyntheticWorkloadConfig,
    sdr_problem,
    sdr2_spec,
    sdr3_spec,
    synthetic_problem,
)
from repro.analysis import render_floorplan, render_partition
from repro.service import (
    BatchSolver,
    SolveCache,
    SolveJob,
    SweepReport,
    run_portfolio,
    run_sweep,
    sweep_jobs,
)
from repro.server import (
    BackgroundGateway,
    GatewayConfig,
    SolveGateway,
)
from repro.fleet import (
    BackgroundFleet,
    FleetConfig,
    FleetManager,
    FleetRouter,
    HashRing,
    RouterConfig,
)
from repro.sim import (
    InhomogeneousPoissonTraffic,
    MMPPTraffic,
    PoissonTraffic,
    RandomFaults,
    ReconfigureInPlace,
    RelocateFirst,
    ResolveViaService,
    ScheduledFaults,
    SimConfig,
    SimulationEngine,
    TraceReplayTraffic,
    sinusoidal_rate,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # device
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
    # floorplanning
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
    # MILP substrate
    "Model",
    "solve",
    "SolverOptions",
    "SolveStatus",
    # relocation
    "RelocationSpec",
    "RelocationRequest",
    "areas_compatible",
    "enumerate_free_compatible_areas",
    "feasibility_analysis",
    # baselines
    "first_fit_floorplan",
    "tessellation_floorplan",
    "annealing_floorplan",
    # bitstreams
    "PartialBitstream",
    "generate_bitstream",
    "relocate_bitstream",
    "RelocationError",
    "ConfigurationMemory",
    # runtime
    "ReconfigurationManager",
    "ReconfigurationError",
    "RuntimeTrace",
    # workloads
    "sdr_problem",
    "sdr2_spec",
    "sdr3_spec",
    "SyntheticWorkloadConfig",
    "synthetic_problem",
    # analysis
    "render_floorplan",
    "render_partition",
    # batch service
    "SolveJob",
    "SolveCache",
    "BatchSolver",
    "SweepReport",
    "sweep_jobs",
    "run_sweep",
    "run_portfolio",
    # serving
    "SolveGateway",
    "GatewayConfig",
    "BackgroundGateway",
    # fleet
    "HashRing",
    "FleetConfig",
    "FleetManager",
    "RouterConfig",
    "FleetRouter",
    "BackgroundFleet",
    # online simulation
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
]
