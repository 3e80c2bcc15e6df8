"""The traced run: per-layer metrics, timed from the benchmark's own files.

Nothing under ``src/`` is instrumented for this.  The traced run repeats the
workload's traffic against the fleet (for the workload-specific outcome
figures, the router's ``/metrics?format=json`` counter deltas and the
``/proc`` CPU accounting), then times calls into each layer's public
functions in this process, on the inputs the workload generated:

* serving layers: ``repro.server.http``, ``repro.server.protocol``,
  ``repro.service.jobs``, ``repro.service.cache``;
* solver layers, stage by stage: ``repro.floorplan.ho``,
  ``repro.floorplan.milp_builder``, ``repro.milp.solver`` (presolve),
  ``repro.milp.scipy_backend`` (search), postsolve (extract, evaluate,
  verify), against ``repro.floorplan.solver.run_job`` on the same job;
* simulator and capacity layers: ``repro.sim.traffic``,
  ``repro.capacity.fleet``, ``repro.capacity.planner``, ``repro.sim.stats``,
  ``repro.capacity.report``.

A layer the workload bypasses reports 0.  ``python3 perfbench/layers.py``
prints the per-workload table.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Router counters whose deltas the traced run records (name -> roll-up path).
COUNTERS = {
    "counters.stores": ("cache", "stores"),
    "counters.misses": ("counters", "cache_misses"),
    "counters.batches": ("counters", "batches"),
    "counters.flight_waits": ("counters", "flight_waits"),
    "counters.deadline_expired": ("counters", "deadline_expired"),
    "counters.degraded": ("counters", "degraded"),
}
SOLVER_STAGES = ("ho.seed_ms", "milp_builder.build_ms", "presolve.ms", "search.ms",
                 "postsolve.ms")
#: Traced ``miss_stream`` is flagged when its stage times cover less than
#: this share of ``run_job`` wall time.
COVERAGE_FLOOR = 0.90


def _median_us(fn: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


# ----------------------------------------------------------------------
# serving layers
# ----------------------------------------------------------------------
class FleetObserver:
    """Router counter deltas, /proc CPU per request and the router hop."""

    def __init__(self, workload: str) -> None:
        self.workload = workload

    def before(self, fleet):
        from fleet import get_json

        pids = fleet.pids()
        return {
            "rollup": asyncio.run(get_json(fleet.port, "/metrics?format=json")),
            "cpu": [fleet.cpu_seconds(pid) for pid in pids],
            "pids": pids,
        }

    def after(self, fleet, samples, before) -> Dict[str, float]:
        from fleet import get_json

        cpu = [fleet.cpu_seconds(pid) for pid in before["pids"]]
        rollup = asyncio.run(get_json(fleet.port, "/metrics?format=json"))
        out: Dict[str, float] = {}
        for name, (block, key) in COUNTERS.items():
            out[name] = rollup[block][key] - before["rollup"][block][key]
        jobs = rollup["counters"]["batched_jobs"] - before["rollup"]["counters"]["batched_jobs"]
        batches = out["counters.batches"]
        out["counters.mean_batch_size"] = jobs / batches if batches else 0.0
        out["counters.sheds"] = sum(
            rollup[block][key] - before["rollup"][block][key]
            for block, key in (("counters", "shed_rate_limited"),
                               ("counters", "shed_queue_full"),
                               ("router", "shed_overload"))
        )
        completed = len(samples)
        out["router.cpu_ms_per_req"] = (cpu[0] - before["cpu"][0]) * 1e3 / completed
        out["replica.cpu_ms_per_req"] = sum(
            after - prior for after, prior in zip(cpu[1:], before["cpu"][1:])
        ) * 1e3 / completed
        if self.workload == "hit_stream":
            replica_port = int(rollup["replicas"][0]["node"].rsplit(":", 1)[1])
            out["router.hop_ms"] = asyncio.run(
                _hop_ms(fleet.port, replica_port, [s.request for s in samples[:200]])
            )
        return out


async def _hop_ms(router_port: int, replica_port: int, requests) -> float:
    """p50 through the router minus p50 direct to the replica, same warm hits.

    The two paths alternate request by request so drift hits both alike.
    """
    from fleet import Connection

    router, direct = await Connection(router_port).open(), await Connection(replica_port).open()
    timings: Dict[str, List[float]] = {"router": [], "direct": []}
    try:
        for request in requests:
            for name, conn in (("router", router), ("direct", direct)):
                started = time.perf_counter()
                status, _payload = await conn.request("POST", "/solve", request.wire)
                if status != 200:
                    raise RuntimeError(f"hop probe answered {status}")
                timings[name].append(time.perf_counter() - started)
    finally:
        await router.close()
        await direct.close()
    return (statistics.median(timings["router"]) - statistics.median(timings["direct"])) * 1e3


def serving_layer_times(run, work: Path, contended: bool) -> Dict[str, float]:
    """Micro-timings of the serving-path functions on the run's own bodies.

    With ``contended``, a solve runs in a background thread meanwhile, as in
    a replica that serves hits beside a miss (``mixed_rw``).
    """
    from repro.server.http import encode_response, read_request
    from repro.server.protocol import job_from_dict
    from repro.service.cache import SolveCache
    from repro.service.results import JobResult

    samples = [s for s in run.samples if s.status == 200]
    bodies = {s.request.fingerprint: s for s in samples}
    paper = [s.request for s in bodies.values() if s.request.paper_scale]
    small = [s.request for s in bodies.values() if not s.request.paper_scale]
    out: Dict[str, float] = {}

    stop = threading.Event()
    background = None
    if contended:
        from repro.floorplan.solver import run_job

        miss_job = run.generator.next_miss().job

        def solve_until_stopped() -> None:
            while not stop.is_set():
                run_job(miss_job)

        background = threading.Thread(target=solve_until_stopped, daemon=True)
        background.start()
    try:
        def decode_us(requests) -> float:
            if not requests:
                return 0.0
            return statistics.median(
                _median_us(lambda r=r: job_from_dict(json.loads(r.wire)), 15) for r in requests
            )

        out["protocol.decode_paper_us"] = decode_us(paper)
        out["protocol.decode_small_us"] = decode_us(small)
        jobs = [job_from_dict(json.loads(r.wire)) for r in paper + small for _ in range(15)]
        fingerprints = []
        for decoded in jobs:  # a fresh job each time: the fingerprint is memoised
            started = time.perf_counter()
            decoded.fingerprint
            fingerprints.append(time.perf_counter() - started)
        out["jobs.fingerprint_us"] = statistics.median(fingerprints) * 1e6

        request = (paper + small)[0]
        raw = (
            f"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(request.wire)}\r\n\r\n"
        ).encode("latin-1") + request.wire

        async def parse_all() -> float:
            samples = []
            for _ in range(200):
                reader = asyncio.StreamReader()
                reader.feed_data(raw)
                started = time.perf_counter()
                await read_request(reader)
                samples.append(time.perf_counter() - started)
            return statistics.median(samples) * 1e6

        out["http.parse_us"] = asyncio.run(parse_all())
        response = json.loads(bodies[request.fingerprint].payload)
        out["http.encode_us"] = _median_us(lambda: encode_response(200, response), 200)

        results = [JobResult.from_dict(json.loads(s.payload)["result"]) for s in bodies.values()]
        cache_dir = work / "layer-cache"
        cache = SolveCache(cache_dir)
        put_times = []
        for result in results:
            started = time.perf_counter()
            cache.put(result)
            put_times.append(time.perf_counter() - started)
        out["cache.put_ms"] = statistics.median(put_times) * 1e3
        fingerprints_all = [r.fingerprint for r in results]
        out["cache.get_mem_us"] = statistics.median(
            _median_us(lambda f=f: cache.get(f), 20) for f in fingerprints_all
        )
        disk = []
        for _ in range(5):
            for fingerprint in fingerprints_all:
                cache.drop_memory()
                started = time.perf_counter()
                cache.get(fingerprint)
                disk.append(time.perf_counter() - started)
        out["cache.get_disk_us"] = statistics.median(disk) * 1e6

        def flight(fingerprint=fingerprints_all[0]) -> None:
            cache.try_acquire_flight(fingerprint)
            cache.release_flight(fingerprint)

        out["cache.flight_us"] = _median_us(flight, 50)
        shutil.rmtree(cache_dir, ignore_errors=True)
    finally:
        stop.set()
        if background is not None:
            background.join()
    return out


# ----------------------------------------------------------------------
# solver layers
# ----------------------------------------------------------------------
def solver_stages(request) -> Dict[str, float]:
    """One job through the solver pipeline, one public call per stage."""
    from checker import wasted_frames
    from repro.floorplan.ho import HOSeeder
    from repro.floorplan.metrics import ObjectiveWeights, evaluate_floorplan
    from repro.floorplan.milp_builder import build_floorplan_milp
    from repro.floorplan.solver import run_job
    from repro.floorplan.verify import verify_floorplan
    from repro.milp.scipy_backend import solve_with_scipy
    from repro.milp.solver import prepare_model
    from repro.relocation.constraints import apply_relocation_constraints

    job = request.job
    problem, relocation = job.problem, job.relocation
    clock = time.perf_counter
    t0 = clock()
    extra_areas = relocation.build_area_specs(problem) if relocation else []
    seed = HOSeeder(problem).build_seed(spec=relocation, heuristic=job.heuristic)
    fixed = seed.fixed_relations()
    t1 = clock()
    milp = build_floorplan_milp(problem, extra_areas=extra_areas, fixed_relations=fixed,
                                model_name=problem.name, prune=True)
    if extra_areas:
        apply_relocation_constraints(milp)
    milp.set_objective(job.weights or ObjectiveWeights.paper_default())
    t2 = clock()
    prepared = prepare_model(milp.model, run_presolve=True, backend="scipy-highs")
    t3 = clock()
    solution = solve_with_scipy(milp.model, time_limit=job.options.time_limit,
                                mip_gap=job.options.mip_gap, prepared=prepared)
    t4 = clock()
    floorplan = milp.extract(solution)
    evaluate_floorplan(floorplan)
    verify_floorplan(floorplan)
    t5 = clock()
    stats = milp.model.stats()

    started = clock()
    report = run_job(job)
    run_job_wall = clock() - started

    final = report.metrics.wasted_frames
    seed_wasted = wasted_frames(
        request.body,
        {name: {"col": p.rect.col, "row": p.rect.row, "width": p.rect.width,
                "height": p.rect.height} for name, p in seed.floorplan.placements.items()},
    )
    return {
        "ho.seed_ms": (t1 - t0) * 1e3,
        "milp_builder.build_ms": (t2 - t1) * 1e3,
        "presolve.ms": (t3 - t2) * 1e3,
        "search.ms": (t4 - t3) * 1e3,
        "postsolve.ms": (t5 - t4) * 1e3,
        "milp_builder.vars": stats.num_variables,
        "milp_builder.rows": stats.num_constraints,
        "presolve.rows_removed": prepared.stats.rows_removed if prepared.stats else 0,
        "run_job_ms": run_job_wall * 1e3,
        "seed_optimal": float(seed_wasted == final),
    }


def solver_layer_metrics(run) -> Dict[str, float]:
    """Stage breakdown over one whole cycle of the run's miss templates."""
    misses = [s for s in run.samples if s.kind == "miss"]
    cycle = misses[: run.generator.cycle_length]
    per_job = [solver_stages(s.request) for s in cycle]
    totals = {key: sum(j[key] for j in per_job) for key in per_job[0]}
    count = len(per_job)
    stage_total = sum(totals[name] for name in SOLVER_STAGES)
    out = {name: totals[name] / count for name in SOLVER_STAGES}
    out.update({
        "milp_builder.vars": totals["milp_builder.vars"] / count,
        "milp_builder.rows": totals["milp_builder.rows"] / count,
        "presolve.rows_removed": totals["presolve.rows_removed"] / count,
        "search.share": totals["search.ms"] / stage_total,
        "solver.coverage": stage_total / totals["run_job_ms"],
        "ho.seed_optimal_share": totals["seed_optimal"] / count,
    })
    overheads = []
    for sample, job in zip(cycle, per_job):
        latencies = [s.latency for s in misses if s.request.template == sample.request.template]
        overheads.append(statistics.median(latencies) * 1e3 - job["run_job_ms"])
    out["gateway.miss_overhead_ms"] = statistics.median(overheads)
    return out


# ----------------------------------------------------------------------
# simulator and capacity layers
# ----------------------------------------------------------------------
def capacity_layer_metrics(scenario_seed: int) -> Dict[str, float]:
    import capacity
    from repro.capacity import __main__ as cli
    from repro.capacity.planner import (
        CapacityScenario,
        CapacitySLO,
        capacity_curve,
        plan_min_devices,
    )
    from repro.capacity.report import plan_document, render_json, render_markdown

    args = cli.build_parser().parse_args(capacity.ARGS + ["--seed", str(scenario_seed)])
    scenario = CapacityScenario(
        profile=cli.default_profile(args.seconds_per_frame, args.ports),
        rate=args.rate, horizon=args.horizon, seed=args.seed,
        modes_per_region=args.modes_per_region, dispatcher=args.dispatcher,
        fault_rate=args.fault_rate, repair_time=args.repair_time,
        queue_capacity=args.queue_capacity,
    )
    slo = CapacitySLO(max_p99_latency_s=args.p99, max_blocking=args.blocking,
                      min_throughput_fraction=args.throughput_fraction)
    clock = time.perf_counter
    started = clock()
    outcome = plan_min_devices(scenario, slo, max_devices=args.max_devices)
    plan_wall = clock() - started
    curve = capacity_curve(scenario, slo, cli.parse_multipliers(args.sweep),
                           max_devices=args.max_devices)

    simulation = scenario.build(outcome.min_devices)
    generate = _median_us(lambda: list(simulation.traffic.generate(args.horizon)), 5) / 1e3
    started = clock()
    result = scenario.build(outcome.min_devices).run()
    sim_wall = clock() - started
    summary = _median_us(result.stats.latency_summary, 5) / 1e3

    def render() -> None:
        document = plan_document(scenario, slo, outcome, curve=curve)
        render_json(document)
        render_markdown(document)

    return {
        "traffic.generate_ms": generate,
        "fleet_sim.events_per_s": result.events_processed / sim_wall,
        "planner.evaluations": len(outcome.evaluations),
        "planner.evaluations_per_s": len(outcome.evaluations) / plan_wall,
        "stats.summary_ms": summary,
        "report.render_ms": _median_us(render, 5) / 1e3,
    }


# ----------------------------------------------------------------------
def trace_workload(workload: str, seed: int, seconds: float, root: Path, work: Path) -> dict:
    """The traced run of one workload: every per-layer metric (0 = bypassed)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
    if workload == "capacity_plan":
        import random

        from capacity import SCENARIO_SEEDS, run_capacity

        run = run_capacity(seed, seconds, root, work)
        for name in ("throughput_rps", "plan_s", "latency_p90_ms", "latency_p99_ms"):
            metrics[name] = run[name]
        metrics["host.steal_share"] = run["steal_share"]
        metrics["failed_share"] = run["failed"] / run["attempted"]
        scenario_seed = random.Random(seed).choice(SCENARIO_SEEDS)
        metrics.update(capacity_layer_metrics(scenario_seed))
        return {"attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}

    from serving import run_serving

    run = run_serving(workload, seed, seconds, root, work, observer=FleetObserver(workload))
    metrics.update(run.workload_figures())
    metrics.update(run.input_shares())
    metrics["host.steal_share"] = run.steal_share
    metrics.update(run.extra)
    metrics.update(serving_layer_times(run, work, contended=workload == "mixed_rw"))
    if workload != "hit_stream":
        metrics.update(solver_layer_metrics(run))
    attempted = len(run.samples)
    return {"attempted": attempted, "failed": attempted - len(run.ok()), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-workload table of the layer metrics.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--json", default=None, help="also write the table as JSON here")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from run import WORKLOADS

    workloads = args.workload or list(WORKLOADS)
    table: Dict[str, Dict[str, float]] = {}
    work = ROOT / ".perfbench_work"
    for workload in workloads:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        try:
            traced = trace_workload(workload, args.seed, args.seconds, ROOT, work)
            table[workload] = traced["metrics"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    names = sorted({name for values in table.values() for name in values})
    width = max(len(name) for name in names)
    print(f"{'metric':<{width}}  " + "  ".join(f"{w:>14}" for w in workloads))
    for name in names:
        cells = "  ".join(f"{table[w].get(name, 0.0):>14.4g}" for w in workloads)
        print(f"{name:<{width}}  {cells}")
    flagged = 0
    if "miss_stream" in table:
        coverage = table["miss_stream"]["solver.coverage"]
        if coverage < COVERAGE_FLOOR:
            flagged = 1
            print(f"FLAG miss_stream: seed+build+presolve+search+postsolve cover "
                  f"{coverage:.1%} of run_job wall time (< {COVERAGE_FLOOR:.0%})")
        else:
            print(f"miss_stream stage coverage of run_job wall time: {coverage:.1%}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "metrics": table},
            indent=1, sort_keys=True) + "\n")
    return flagged


if __name__ == "__main__":
    sys.exit(main())
