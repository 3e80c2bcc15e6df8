"""The registered benchmark suite.

Importing this module populates :data:`repro.bench.registry.REGISTRY` with
micro-benchmarks for the floorplanning hot paths plus scenario benchmarks
covering the same ground as the ``benchmarks/bench_*.py`` scripts (sequence
pairs, MILP build/lowering/solve, heuristic baselines, the discrete-event
simulator, the bitstream path and the batch-service sweep machinery).

End-to-end serving and planner traffic (closed-loop cache misses and warm
hits through a one-replica fleet, the capacity CLI) is measured by
``perfbench``; the serving benchmarks here measure one mechanism each:
admission control under open-loop load, herd collapse, replica scaling,
tracing overhead, failover and brown-out.

Sizes are profile-dependent: ``--quick`` stays small enough for a CI smoke
job, ``--full`` uses inputs large enough to expose asymptotic differences.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.bench import scenarios
from repro.bench.registry import benchmark
from repro.bench.runner import BenchProfile, Workload

__all__ = ["load"]


def load() -> None:
    """No-op entry point; importing the module registers everything."""


# ----------------------------------------------------------------------
# floorplan: sequence-pair machinery
# ----------------------------------------------------------------------
@benchmark("floorplan.sp_from_rects")
def sp_from_rects(profile: BenchProfile) -> Workload:
    """Extract a sequence pair from a dense non-overlapping placement."""
    from repro.floorplan.sequence_pair import SequencePair

    rects = scenarios.random_placement(profile.scaled(40, 120), seed=7)
    return Workload(lambda: SequencePair.from_rects(rects), units=len(rects), unit_name="rects")


@benchmark("floorplan.sp_relations")
def sp_relations(profile: BenchProfile) -> Workload:
    """All pairwise relative positions implied by a sequence pair."""
    from repro.floorplan.sequence_pair import SequencePair

    rects = scenarios.random_placement(profile.scaled(40, 120), seed=11)
    pair = SequencePair.from_rects(rects)

    def run():
        return pair.relations()

    return Workload(run, units=len(rects) * (len(rects) - 1), unit_name="pairs")


@benchmark("floorplan.sp_consistency")
def sp_consistency(profile: BenchProfile) -> Workload:
    """Check a placement against every relation of its sequence pair."""
    from repro.floorplan.sequence_pair import SequencePair

    rects = scenarios.random_placement(profile.scaled(40, 120), seed=13)
    pair = SequencePair.from_rects(rects)

    def run():
        assert pair.is_consistent_with(rects)

    return Workload(run, units=len(rects) * (len(rects) - 1), unit_name="pairs")


@benchmark("floorplan.sp_packing")
def sp_packing(profile: BenchProfile) -> Workload:
    """Evaluate a sequence pair into packed coordinates (weighted-LCS)."""
    from repro.floorplan.sequence_pair import SequencePair

    rects = scenarios.random_placement(profile.scaled(40, 120), seed=17)
    pair = SequencePair.from_rects(rects)
    widths = {name: rect.width for name, rect in rects.items()}
    heights = {name: rect.height for name, rect in rects.items()}
    return Workload(
        lambda: pair.pack(widths, heights), units=len(rects), unit_name="rects"
    )


@benchmark("floorplan.milp_build")
def milp_build(profile: BenchProfile) -> Workload:
    """Build the candidate-rectangle MILP for a mid-size problem (no incumbent)."""
    from repro.floorplan.milp_builder import build_floorplan_milp

    problem = scenarios.scaling_problem(profile.scaled(16, 33))
    stats = build_floorplan_milp(problem).model.stats()
    return Workload(
        lambda: build_floorplan_milp(problem),
        units=stats.num_constraints,
        unit_name="constraints",
    )


@benchmark("floorplan.milp_build_pruned")
def milp_build_pruned(profile: BenchProfile) -> Workload:
    """Build the candidate-rectangle MILP of the resource-pinned workload."""
    from repro.floorplan.milp_builder import build_floorplan_milp

    problem = scenarios.pruning_problem(profile.scaled(80, 96))
    stats = build_floorplan_milp(problem).model.stats()
    return Workload(
        lambda: build_floorplan_milp(problem),
        units=stats.num_constraints,
        unit_name="constraints",
    )


@benchmark("floorplan.ho_seed")
def ho_seed(profile: BenchProfile) -> Workload:
    """Heuristic seed + sequence-pair extraction (the HO front half)."""
    from repro.floorplan.ho import HOSeeder

    problem = scenarios.small_problem("ho-seed")
    seeder = HOSeeder(problem)

    def run():
        return seeder.build_seed().fixed_relations()

    return Workload(run, units=1, unit_name="seeds")


# ----------------------------------------------------------------------
# milp: lowering and solving
# ----------------------------------------------------------------------
@benchmark("milp.matrix_form")
def milp_matrix_form(profile: BenchProfile) -> Workload:
    """Lower a built floorplanning model to sparse matrix form."""
    from repro.floorplan.milp_builder import build_floorplan_milp

    problem = scenarios.scaling_problem(profile.scaled(16, 33), name="lowering")
    model = build_floorplan_milp(problem).model
    nnz = model.stats().num_nonzeros
    return Workload(lambda: model.to_matrix_form(), units=nnz, unit_name="nonzeros")


@benchmark("milp.bb_warmstart")
def milp_bb_warmstart(profile: BenchProfile) -> Workload:
    """Warm-started branch and bound on the prebuilt HO ablation model.

    The HO model is built (and seeded) once in setup so the timed section
    measures the solver alone.
    """
    from repro.floorplan import ObjectiveWeights
    from repro.floorplan.ho import HOSeeder
    from repro.floorplan.milp_builder import build_floorplan_milp
    from repro.milp import SolverOptions, solve

    problem = scenarios.small_problem("bb-warm")
    seed = HOSeeder(problem).build_seed()
    milp = build_floorplan_milp(problem, fixed_relations=seed.fixed_relations())
    milp.set_objective(ObjectiveWeights(wirelength=0.0, wasted_frames=1.0))
    options = SolverOptions(
        backend="branch-bound",
        time_limit=scenarios.bench_time_limit(60.0),
        mip_gap=0.05,
    )

    def run():
        solution = solve(milp.model, options)
        assert solution.status.has_solution
        return solution

    return Workload(run, units=1, unit_name="solves")


@benchmark("milp.solve_small")
def milp_solve_small(profile: BenchProfile) -> Workload:
    """End-to-end HO solve of the small ablation problem via HiGHS."""
    from repro.floorplan import FloorplanSolver, ObjectiveWeights
    from repro.milp import SolverOptions

    problem = scenarios.small_problem("solve-small")
    options = SolverOptions(time_limit=scenarios.bench_time_limit(30.0), mip_gap=0.05)

    def run():
        report = FloorplanSolver(problem, mode="HO", options=options).solve(
            weights=ObjectiveWeights(wirelength=0.0, wasted_frames=1.0)
        )
        assert report.solution.status.has_solution
        return report

    return Workload(run, units=1, unit_name="solves")


# ----------------------------------------------------------------------
# baselines: heuristic floorplanners
# ----------------------------------------------------------------------
@benchmark("baselines.annealing")
def annealing(profile: BenchProfile) -> Workload:
    """Simulated annealing on the small ablation problem."""
    from repro.baselines.annealing import AnnealingOptions, annealing_floorplan

    problem = scenarios.small_problem("anneal-bench")
    iterations = profile.scaled(4000, 20000)
    options = AnnealingOptions(iterations=iterations, seed=1)

    def run():
        floorplan = annealing_floorplan(problem, options)
        assert floorplan is not None
        return floorplan

    return Workload(run, units=iterations, unit_name="moves")


@benchmark("baselines.first_fit")
def first_fit(profile: BenchProfile) -> Workload:
    """First-fit greedy placement."""
    from repro.baselines.first_fit import first_fit_floorplan

    problem = scenarios.small_problem("ff-bench")
    return Workload(lambda: first_fit_floorplan(problem), units=1, unit_name="plans")


@benchmark("baselines.tessellation")
def tessellation(profile: BenchProfile) -> Workload:
    """Kernel-tessellation placement (the [8]-style baseline)."""
    from repro.baselines.tessellation import tessellation_floorplan

    problem = scenarios.small_problem("tess-bench")
    return Workload(lambda: tessellation_floorplan(problem), units=1, unit_name="plans")


# ----------------------------------------------------------------------
# sim: discrete-event simulator
# ----------------------------------------------------------------------
@benchmark("sim.poisson_events")
def sim_poisson(profile: BenchProfile) -> Workload:
    """Events/sec under steady Poisson load with the in-place policy."""
    from repro.runtime import ReconfigurationManager
    from repro.sim import PoissonTraffic, ReconfigureInPlace, SimConfig, SimulationEngine

    floorplan = scenarios.sim_floorplan()
    horizon = float(profile.scaled(100, 500))

    def run():
        engine = SimulationEngine(
            ReconfigurationManager(floorplan),
            traffic=PoissonTraffic(["A", "B"], rate=10.0, seed=0),
            policy=ReconfigureInPlace(),
            config=SimConfig(horizon=horizon, seconds_per_frame=1e-4),
        )
        result = engine.run()
        # deterministic (seeded), so every run observes the same count; the
        # warmup run fills this in before the timed rounds are summarized
        workload.units = float(result.events_processed)
        return result

    workload = Workload(run, units=1.0, unit_name="events")
    return workload


# ----------------------------------------------------------------------
# capacity: fleet simulation and the minimum-fleet-size planner
# ----------------------------------------------------------------------
def _capacity_profile():
    from repro.capacity import DeviceProfile

    # ~8 req/s of serving capacity per device: large enough that the planner
    # has real work to do at double-digit offered rates
    return DeviceProfile(
        name="bench-dev", frame_counts={"A": 100, "B": 150}, seconds_per_frame=1e-3
    )


@benchmark("capacity.fleet_sim")
def capacity_fleet_sim(profile: BenchProfile) -> Workload:
    """Events/sec through a 16-device fleet under shared Poisson load."""
    from repro.capacity import FleetConfig, FleetSimulation, make_dispatcher
    from repro.sim import PoissonTraffic

    device = _capacity_profile()
    horizon = float(profile.scaled(60, 300))

    def run():
        result = FleetSimulation(
            profile=device,
            num_devices=16,
            traffic=PoissonTraffic(["A", "B"], rate=40.0, seed=0),
            dispatcher=make_dispatcher("least-loaded"),
            config=FleetConfig(horizon=horizon),
        ).run()
        workload.units = float(result.events_processed)
        return result

    workload = Workload(run, units=1.0, unit_name="events")
    return workload


# ----------------------------------------------------------------------
# bitstream: generation and relocation filter
# ----------------------------------------------------------------------
@benchmark("bitstream.generate")
def bitstream_generate(profile: BenchProfile) -> Workload:
    """Generate a partial bitstream for a 4x4 module."""
    from repro.bitstream import generate_bitstream
    from repro.device.catalog import synthetic_device
    from repro.floorplan.geometry import Rect

    device = synthetic_device(16, 8, bram_every=5, dsp_every=9, name="gen-dev")
    rect = Rect(0, 0, 4, 4)
    return Workload(
        lambda: generate_bitstream(device, rect, "throughput-module"),
        units=1,
        unit_name="bitstreams",
    )


@benchmark("bitstream.relocate")
def bitstream_relocate(profile: BenchProfile) -> Workload:
    """Run the relocation filter on a generated bitstream."""
    from repro.bitstream import generate_bitstream, relocate_bitstream
    from repro.device.catalog import synthetic_device
    from repro.device.partition import columnar_partition
    from repro.floorplan.geometry import Rect

    device = synthetic_device(16, 8, bram_every=5, dsp_every=9, name="filter-dev")
    partition = columnar_partition(device)
    source = generate_bitstream(device, Rect(0, 0, 3, 3), "reloc-module")
    target = Rect(0, 4, 3, 3)
    return Workload(
        lambda: relocate_bitstream(source, target, device, partition),
        units=1,
        unit_name="relocations",
    )


# ----------------------------------------------------------------------
# service: job canonicalization / sweep construction
# ----------------------------------------------------------------------
@benchmark("service.sweep_build")
def service_sweep_build(profile: BenchProfile) -> Workload:
    """Build the 8-job sweep grid (workload generation + job specs)."""
    jobs = scenarios.throughput_sweep_jobs(time_limit=5.0)
    count = len(jobs)
    return Workload(
        lambda: scenarios.throughput_sweep_jobs(time_limit=5.0),
        units=count,
        unit_name="jobs",
    )


@benchmark("service.fingerprint")
def service_fingerprint(profile: BenchProfile) -> Workload:
    """Content-hash the sweep jobs (cache-key canonicalization)."""
    jobs = scenarios.throughput_sweep_jobs(time_limit=5.0)

    def run():
        for job in jobs:
            job._fingerprint = None  # force re-canonicalization
            _ = job.fingerprint

    return Workload(run, units=len(jobs), unit_name="jobs")


# ----------------------------------------------------------------------
# server: admission control under open-loop load
# ----------------------------------------------------------------------
@benchmark("server.gateway_open_loop")
def server_gateway_open_loop(profile: BenchProfile) -> Workload:
    """Warm-cache open-loop serving: Poisson arrivals past a rate limiter.

    The offered rate deliberately exceeds the per-client token bucket, so the
    snapshot records a non-zero shed rate — the admission-control path is part
    of what this benchmark guards.  ``perfbench`` runs closed-loop clients
    with no rate limit and never sheds.
    """
    from repro.server.gateway import BackgroundGateway, GatewayConfig
    from repro.server.loadgen import run_open_loop

    rate = float(profile.scaled(150, 300))
    payloads = scenarios.server_payloads(unique=4)
    background = BackgroundGateway(
        GatewayConfig(port=0, rate_limit=0.6 * rate, rate_burst=0.2 * rate)
    )

    def run():
        result = run_open_loop(
            background.host, background.port, payloads, rate=rate, horizon=1.0, seed=7
        )
        workload.units = float(result.sent)
        workload.extras.update(
            {
                "throughput_rps": round(result.throughput, 3),
                "p50_ms": round(result.p50_s * 1e3, 3),
                "p99_ms": round(result.p99_s * 1e3, 3),
                "shed_rate": round(result.shed_rate, 6),
                "hit_rate": round(result.hit_rate, 6),
            }
        )
        return result

    workload = Workload(run, units=1.0, unit_name="requests")
    workload.teardown = background.stop
    try:
        run()  # prefill: the timed rounds then serve a warm cache
    except BaseException:
        # the runner only sees the Workload (and its teardown) if the factory
        # returns; a failed prefill must not leak the gateway thread/port
        background.stop()
        raise
    return workload


# ----------------------------------------------------------------------
# fleet: multi-process replicas behind the consistent-hash router
# ----------------------------------------------------------------------


def _fleet_miss_rounds(profile: BenchProfile, per_round: int):
    """Fresh-fingerprint payload batches, one per warmup/timed round.

    Cache-miss rounds cannot be reset by clearing the shared directory — the
    replicas hold in-memory LRU copies a parent process cannot reach.  Fresh
    fingerprints per round make every round a true miss regardless.  The
    payloads are the heavy three-region instances: collapsing duplicate *solves*
    is only visible when a solve costs far more than the HTTP hops spent
    collapsing it.
    """
    rounds = profile.warmup + profile.repeats + 2  # +2 slack for re-runs
    pool = scenarios.server_payloads(unique=rounds * per_round, heavy=True)
    return [pool[index * per_round : (index + 1) * per_round] for index in range(rounds)]


def _fleet_workload(
    profile: BenchProfile,
    replicas: int,
    clients: int,
    per_round: int,
):
    """Shared shape of the ``fleet.*`` cache-miss benchmarks.

    A :class:`~repro.fleet.BackgroundFleet` (replica processes + router) is
    started once in setup; each timed round throws one closed-loop burst of
    *fresh-fingerprint* payloads at its router.  Per-round extras record
    fleet-wide solve counts scraped from the router's ``/metrics`` roll-up,
    so the snapshot carries the work-collapse evidence
    (``solves_per_unique``) alongside the latency numbers.
    """
    import tempfile

    from repro.fleet import BackgroundFleet
    from repro.server.loadgen import fetch_metrics_json, run_closed_loop

    rounds = _fleet_miss_rounds(profile, per_round)
    fleet = BackgroundFleet(
        replicas=replicas,
        cache_dir=tempfile.mkdtemp(prefix="repro-bench-fleet-"),
    )
    state = {"round": 0, "stores": 0.0}

    def run():
        batch = rounds[state["round"] % len(rounds)]
        state["round"] += 1
        result = run_closed_loop(
            fleet.host, fleet.port, batch, clients=clients, requests_per_client=1
        )
        rollup = fetch_metrics_json(fleet.host, fleet.port)
        stores = float(rollup["cache"]["stores"])
        workload.units = float(result.sent)
        workload.extras.update(
            {
                "throughput_rps": round(result.throughput, 3),
                "p50_ms": round(result.p50_s * 1e3, 3),
                "p99_ms": round(result.p99_s * 1e3, 3),
                "errors": float(result.errors),
                "unique_jobs": float(per_round),
                "solves_fleetwide": stores - state["stores"],
                "solves_per_unique": (stores - state["stores"]) / per_round,
            }
        )
        state["stores"] = stores
        return result

    workload = Workload(run, units=float(clients), unit_name="requests")
    workload.teardown = fleet.stop
    return workload


@benchmark("fleet.herd_single")
def fleet_herd_single(profile: BenchProfile) -> Workload:
    """The duplicate-miss herd against one gateway.

    8 concurrent requests over 2 unique jobs, fresh fingerprints per round,
    on a default-config gateway.  Every duplicate meets its job in the
    gateway's batcher and joins that solve,
    so ``solves_per_unique`` is 1; ``fleet.herd_fleet4`` sends the same
    herd through a four-replica fleet's router.
    """
    from repro.server.gateway import BackgroundGateway, GatewayConfig
    from repro.server.loadgen import run_closed_loop

    rounds = _fleet_miss_rounds(profile, 2)
    state = {"round": 0, "batches": 0.0}
    background = BackgroundGateway(GatewayConfig(port=0))
    gateway = background.gateway

    def run():
        batch = rounds[state["round"] % len(rounds)]
        state["round"] += 1
        result = run_closed_loop(
            background.host, background.port, batch,
            clients=8, requests_per_client=1,
        )
        batches = float(gateway.metrics.batches)
        workload.units = float(result.sent)
        workload.extras.update(
            {
                "throughput_rps": round(result.throughput, 3),
                "p50_ms": round(result.p50_s * 1e3, 3),
                "p99_ms": round(result.p99_s * 1e3, 3),
                "errors": float(result.errors),
                "unique_jobs": 2.0,
                "solves_fleetwide": batches - state["batches"],
                "solves_per_unique": (batches - state["batches"]) / 2.0,
            }
        )
        state["batches"] = batches
        return result

    workload = Workload(run, units=8.0, unit_name="requests")
    workload.teardown = background.stop
    return workload


@benchmark("fleet.herd_fleet4")
def fleet_herd_fleet4(profile: BenchProfile) -> Workload:
    """The same duplicate-miss herd against a 4-replica fleet.

    Identical load as ``fleet.herd_single``, sent through the router: its
    ring sends every duplicate of a job to that job's owner replica, whose
    batcher joins it onto the running solve.  The snapshot's acceptance
    evidence: ``solves_per_unique == 1`` (8 duplicate misses → 2 solves
    fleet-wide, as on the single gateway of ``fleet.herd_single``).
    """
    return _fleet_workload(profile, replicas=4, clients=8, per_round=2)


@benchmark("fleet.miss_r1")
def fleet_miss_r1(profile: BenchProfile) -> Workload:
    """Distinct-fingerprint misses through the router, 1 replica.

    The honest replica-scaling pair (with ``fleet.miss_r4``): 4 concurrent
    clients, 4 unique jobs per round, no duplicates — so no solve is ever
    joined and the margin is pure multi-process parallelism.  On a
    multi-core host r4 approaches linear scaling; on a single-core runner
    the pair is ~flat and documents exactly that.
    """
    return _fleet_workload(profile, replicas=1, clients=4, per_round=4)


@benchmark("fleet.miss_r4")
def fleet_miss_r4(profile: BenchProfile) -> Workload:
    """Distinct-fingerprint misses through the router, 4 replicas.

    See ``fleet.miss_r1`` — this is the scaled half of the pair.
    """
    return _fleet_workload(profile, replicas=4, clients=4, per_round=4)


# ----------------------------------------------------------------------
# obs: tracing overhead on the serving hot path
# ----------------------------------------------------------------------
@benchmark("obs.trace_overhead")
def obs_trace_overhead(profile: BenchProfile) -> Workload:
    """Per-request cost of tracing: traced vs untraced warm cache-hit serving.

    Two identical gateways — one with the recorder on (the default), one
    with ``tracing=False`` — serve the *same* alternating request stream.
    Design notes, each of which a noisy shared box made necessary:

    - Gateways and the load generator share one event loop on one thread.
      A background-thread server lets GIL scheduling (5 ms switch interval)
      inflate a ~30 µs instrumentation cost into a hundreds-of-µs latency
      artifact.
    - Requests alternate traced/untraced *per request* over two keep-alive
      connections (first side swapping every pair), so adjacent samples see
      near-identical machine conditions and slow load drift cancels instead
      of biasing whichever side ran during a noisy stretch.
    - Latencies accumulate across every timed round; the final extras
      compare pooled p50s over the whole protocol.

    ``overhead_pct`` is the acceptance evidence that spans, the recorder
    ring, and header propagation cost < 5% of a cache-hit p50.
    """
    import asyncio
    import statistics as stats_mod

    from repro.server.gateway import GatewayConfig, SolveGateway
    from repro.server.loadgen import GatewayClient

    pairs_per_round = profile.scaled(150, 400)
    payloads = scenarios.server_payloads(unique=4)

    loop = asyncio.new_event_loop()
    traced = SolveGateway(config=GatewayConfig(port=0))
    untraced = SolveGateway(config=GatewayConfig(port=0, tracing=False))
    clients: Dict[str, GatewayClient] = {}
    pooled: Dict[str, List[float]] = {"traced": [], "untraced": []}
    walls: Dict[str, float] = {"traced": 0.0, "untraced": 0.0}

    async def alternating_round():
        sides = [("traced", clients["traced"]), ("untraced", clients["untraced"])]
        for index in range(pairs_per_round):
            payload = payloads[index % len(payloads)]
            order = sides if index % 2 == 0 else sides[::-1]
            for name, client in order:
                started = time.perf_counter()
                status, _ = await client.solve(payload)
                elapsed = time.perf_counter() - started
                if status != 200:
                    raise RuntimeError(f"{name} gateway answered {status}")
                pooled[name].append(elapsed)
                walls[name] += elapsed

    def run():
        loop.run_until_complete(alternating_round())
        traced_p50 = stats_mod.median(pooled["traced"])
        untraced_p50 = stats_mod.median(pooled["untraced"])
        workload.units = float(2 * pairs_per_round)
        overhead = (
            (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 > 0 else 0.0
        )
        workload.extras.update(
            {
                "traced_p50_ms": round(traced_p50 * 1e3, 3),
                "untraced_p50_ms": round(untraced_p50 * 1e3, 3),
                "traced_throughput_rps": round(
                    len(pooled["traced"]) / walls["traced"], 3
                ),
                "untraced_throughput_rps": round(
                    len(pooled["untraced"]) / walls["untraced"], 3
                ),
                "overhead_pct": round(100.0 * overhead, 3),
            }
        )

    def stop():
        async def shutdown():
            for client in clients.values():
                await client.close()
            await traced.drain()
            await untraced.drain()
            # reap connection handlers still waiting on their close handshake
            leftovers = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            if leftovers:
                _done, pending = await asyncio.wait(leftovers, timeout=1.0)
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
        try:
            loop.run_until_complete(shutdown())
        finally:
            loop.close()

    async def startup():
        await traced.start()
        await untraced.start()
        host = traced.config.host
        clients["traced"] = await GatewayClient(host, traced.port).connect()
        clients["untraced"] = await GatewayClient(host, untraced.port).connect()
        # prefill both caches: every measured request is a warm hit
        for name, client in clients.items():
            for payload in payloads:
                status, _ = await client.solve(payload)
                if status != 200:
                    raise RuntimeError(f"{name} gateway prefill answered {status}")

    workload = Workload(run, units=1.0, unit_name="requests")
    workload.teardown = stop
    try:
        loop.run_until_complete(startup())
    except BaseException:
        stop()
        raise
    return workload


# ----------------------------------------------------------------------
# runtime: reconfiguration manager
# ----------------------------------------------------------------------
@benchmark("runtime.reconfigure")
def runtime_reconfigure(profile: BenchProfile) -> Workload:
    """Round-robin mode swaps through the reconfiguration manager."""
    from repro.runtime import ReconfigurationManager, round_robin_schedule

    floorplan = scenarios.sim_floorplan("runtime-bench")
    rounds = profile.scaled(5, 20)
    steps = list(round_robin_schedule(list(floorplan.placements), rounds=rounds))

    def run():
        manager = ReconfigurationManager(floorplan)
        for region, mode in steps:
            manager.reconfigure(region, mode)
        return manager

    return Workload(run, units=len(steps), unit_name="reconfigs")


# ----------------------------------------------------------------------
# resilience: failure and overload behaviour under load
# ----------------------------------------------------------------------
@benchmark("resilience.failover_latency")
def resilience_failover_latency(profile: BenchProfile) -> Workload:
    """Warm-cache serving through the router while a replica is killed.

    A 2-replica fleet is prefilled so every request is a cache hit, then each
    timed round SIGKILLs one replica (alternating) and immediately throws a
    closed-loop burst through the router.  The measured time is the price of
    failover: circuit-breaker opening, jittered retries, and the supervisor
    bringing the replica back.  ``errors`` must stay 0 — failover means the
    *clients* never notice.
    """
    import tempfile

    from repro.fleet import BackgroundFleet
    from repro.fleet.manager import FleetConfig
    from repro.server.loadgen import run_closed_loop

    payloads = scenarios.server_payloads(unique=2)
    fleet = BackgroundFleet(
        fleet_config=FleetConfig(
            replicas=2,
            cache_dir=tempfile.mkdtemp(prefix="repro-bench-resilience-"),
            backoff_base=0.1,
            backoff_cap=0.5,
            backoff_seed=0,
        )
    )
    state = {"round": 0}

    # prefill: one pass through the router so every replica-side miss lands
    # in the shared tier and the timed rounds measure routing, not solving
    run_closed_loop(fleet.host, fleet.port, payloads, clients=2, requests_per_client=2)

    def run():
        victim = state["round"] % 2
        state["round"] += 1
        fleet.manager.kill_replica(victim)
        result = run_closed_loop(
            fleet.host, fleet.port, payloads, clients=4, requests_per_client=4
        )
        # let the supervisor restore the victim before the next round kills
        # the *other* replica, so the fleet never goes dark
        fleet.manager.wait_healthy(victim, timeout=30.0)
        workload.units = float(result.sent)
        workload.extras.update(
            {
                "throughput_rps": round(result.throughput, 3),
                "p50_ms": round(result.p50_s * 1e3, 3),
                "p99_ms": round(result.p99_s * 1e3, 3),
                "errors": float(result.errors),
                "shed": float(result.shed),
                "restarts": float(fleet.manager.total_restarts),
            }
        )
        return result

    workload = Workload(run, units=16.0, unit_name="requests")
    workload.teardown = fleet.stop
    return workload


@benchmark("resilience.brownout_floor")
def resilience_brownout_floor(profile: BenchProfile) -> Workload:
    """Throughput floor of a browned-out gateway on heavy cache misses.

    The gateway runs with ``brownout_watermark=1``: the queue depth is at
    least one while any solve runs, so every fresh job is a clamped solve,
    its time limit cut to ``MIN_CLAMPED_TIME_LIMIT``, and the burst's jobs
    run concurrently on the solver threads.  Each round is a
    fresh-fingerprint burst of the heavy three-region instances, and the
    measured throughput is the floor the gateway holds while overloaded.
    ``degraded_share`` in the extras counts the answers the clamp cut short
    of optimal; it reads 0 when every heavy answer proves optimal inside the
    clamp, as it usually does.  The
    committed ``benchmarks/baselines/BENCH_snapshot.json`` still records the
    annealing answers this path replaced (p50 1671 ms).
    """
    from repro.server.gateway import BackgroundGateway, GatewayConfig
    from repro.server.loadgen import run_closed_loop

    per_round = 4
    rounds = profile.warmup + profile.repeats + 2
    pool = scenarios.server_payloads(unique=rounds * per_round, heavy=True)
    batches = [
        pool[index * per_round : (index + 1) * per_round] for index in range(rounds)
    ]
    background = BackgroundGateway(GatewayConfig(port=0, brownout_watermark=1))
    gateway = background.gateway
    state = {"round": 0, "degraded": 0.0}

    def run():
        batch = batches[state["round"] % len(batches)]
        state["round"] += 1
        result = run_closed_loop(
            background.host, background.port, batch,
            clients=per_round, requests_per_client=1,
        )
        degraded = float(gateway.metrics.degraded)
        workload.units = float(result.sent)
        workload.extras.update(
            {
                "throughput_rps": round(result.throughput, 3),
                "p50_ms": round(result.p50_s * 1e3, 3),
                "p99_ms": round(result.p99_s * 1e3, 3),
                "errors": float(result.errors),
                "degraded_share": (degraded - state["degraded"]) / max(1, result.sent),
            }
        )
        state["degraded"] = degraded
        return result

    workload = Workload(run, units=float(per_round), unit_name="requests")
    workload.teardown = background.stop
    return workload
