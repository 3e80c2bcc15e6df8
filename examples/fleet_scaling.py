#!/usr/bin/env python
"""Fleet scaling walkthrough: 1/2/4 replicas under a duplicate-miss herd.

For each fleet size this script spawns the real thing — N ``repro.server``
gateway subprocesses supervised by a :class:`~repro.fleet.manager.FleetManager`
behind a consistent-hash :class:`~repro.fleet.router.FleetRouter` — and drives
the same closed-loop workload through the router: 8 clients hammering 2
*fresh* instances (4 identical concurrent misses per unique).

The table to watch is ``solves/unique``: however many replicas the fleet
has, the router's ring sends every duplicate of a job to the one replica that
owns its fingerprint, where it joins the running solve — exactly **one**
solve per unique job fleet-wide.  On a multi-core box the distinct-miss work also spreads across replica
processes for near-linear throughput; on a single-core runner throughput is
roughly flat and the win is the collapsed work.

Run with::

    python examples/fleet_scaling.py            # heavy ~1-2 s instances
    python examples/fleet_scaling.py --quick    # light instances, fast smoke
"""

import argparse
import sys
import tempfile

from repro.analysis import format_table
from repro.fleet import BackgroundFleet
from repro.server.loadgen import demo_payloads, fetch_metrics_json, run_closed_loop

CLIENTS = 8
UNIQUE = 2  # 8 requests over 2 uniques = 4 identical concurrent misses each


def drive_fleet(replicas: int, payloads) -> dict:
    """One fleet size: spawn, herd, scrape the roll-up, tear down."""
    cache_dir = tempfile.mkdtemp(prefix=f"fleet-scaling-{replicas}-")
    with BackgroundFleet(replicas=replicas, cache_dir=cache_dir) as fleet:
        result = run_closed_loop(
            fleet.host, fleet.port, payloads, clients=CLIENTS, requests_per_client=1
        )
        rollup = fetch_metrics_json(fleet.host, fleet.port)
    solves = rollup["cache"]["stores"]
    return {
        "replicas": replicas,
        "throughput": result.throughput,
        "p50_ms": result.p50_s * 1e3,
        "errors": result.errors,
        "solves": solves,
        "solves_per_unique": solves / UNIQUE,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use light ~0.5 s instances instead of heavy ~1-2 s ones",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="fleet sizes to sweep (default: 1 2 4)",
    )
    args = parser.parse_args(argv)

    # fresh fingerprints per fleet size: every sweep entry starts cache-cold
    pool = demo_payloads(
        unique=UNIQUE * len(args.replicas), time_limit=30.0, heavy=not args.quick
    )
    rows = []
    for index, replicas in enumerate(args.replicas):
        payloads = pool[index * UNIQUE:(index + 1) * UNIQUE]
        print(
            f"fleet of {replicas}: {CLIENTS} clients x {UNIQUE} unique jobs "
            f"({CLIENTS // UNIQUE} duplicate concurrent misses each) ..."
        )
        outcome = drive_fleet(replicas, payloads)
        rows.append(
            [
                outcome["replicas"],
                f"{outcome['throughput']:.2f}",
                f"{outcome['p50_ms']:.1f}",
                outcome["solves"],
                f"{outcome['solves_per_unique']:.1f}",
                outcome["errors"],
            ]
        )
        if outcome["errors"]:
            print("unexpected 5xx responses — aborting", file=sys.stderr)
            return 1

    print()
    print(
        format_table(
            ["replicas", "req/s", "p50 (ms)", "solves", "solves/unique", "errors"],
            rows,
            title=f"duplicate-miss herd: {CLIENTS} clients, {UNIQUE} unique jobs",
        )
    )
    print(
        "\nthe router's ring keeps solves/unique at 1.0 at every fleet size: the\n"
        "herd's duplicate work is collapsed fleet-wide, not multiplied by N."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
