"""End-to-end benchmark of the floorplanning service.

    python3 perfbench/run.py --workload miss_stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The serving workloads start
``python -m repro.fleet --replicas 1`` from ``src/`` and drive it over HTTP;
``capacity_plan`` runs ``python -m repro.capacity``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
Scratch files live in ``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("miss_stream", "hit_stream", "mixed_rw", "capacity_plan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.trace:
            from layers import trace_workload

            outcome = trace_workload(args.workload, args.seed, args.seconds, ROOT, work)
            wanted = spec["per_layer"]
        else:
            outcome = measure(args.workload, args.seed, args.seconds, work)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = outcome["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    if args.trace == 0:
        print(json.dumps({"inputs": outcome["inputs"]}))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    if workload == "capacity_plan":
        from capacity import run_capacity

        run = run_capacity(seed, seconds, ROOT, work)
        return {
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": run["end_to_end"],
            "inputs": {"host.steal_share": run["steal_share"],
                       "host.stolen_busy_share": run["stolen_busy_share"]},
        }
    from serving import run_serving

    run = run_serving(workload, seed, seconds, ROOT, work)
    attempted = len(run.samples)
    return {
        "attempted": attempted,
        "failed": attempted - len(run.ok()),
        "metrics": run.end_to_end(),
        "inputs": {**run.input_shares(), "host.steal_share": run.steal_share,
                   "host.stolen_busy_share": run.stolen},
    }


if __name__ == "__main__":
    sys.exit(main())
