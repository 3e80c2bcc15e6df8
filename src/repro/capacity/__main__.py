"""Command-line capacity planner.

Answers "how many devices for X req/s at p99 < Y ms" on the paper-scale
two-region floorplan (or any profile the flags describe), optionally sweeping
rate multipliers into a capacity curve::

    python -m repro.capacity --rate 50 --p99 0.2 --sweep 0.5,1.0,2.0

The markdown report goes to stdout; ``--json``/``--markdown`` also write the
deterministic documents to files.  Two runs with the same flags produce
byte-identical output (the ``capacity-smoke`` CI job asserts this).

Exit codes: 0 = plan found, 2 = SLO unreachable within ``--max-devices``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.capacity.dispatch import dispatcher_names
from repro.capacity.fleet import DeviceProfile
from repro.capacity.planner import (
    CapacityScenario,
    CapacitySLO,
    capacity_curve,
    plan_min_devices,
)
from repro.capacity.report import plan_document, render_json, render_markdown
from repro.device.catalog import simple_two_type_device
from repro.floorplan.geometry import Rect


def default_profile(seconds_per_frame: float, num_ports: int) -> DeviceProfile:
    """The paper-scale profile: two 2x2 regions on the two-type device."""
    device = simple_two_type_device()
    return DeviceProfile.from_floorplan(
        device,
        {"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 2, 2)},
        seconds_per_frame=seconds_per_frame,
        num_ports=num_ports,
        name="v5-2region",
    )


def parse_multipliers(raw: Optional[str]) -> Optional[List[float]]:
    if not raw:
        return None
    return [float(part) for part in raw.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.capacity",
        description="Plan the minimum FPGA fleet size meeting a traffic SLO.",
    )
    traffic = parser.add_argument_group("traffic")
    traffic.add_argument("--rate", type=float, default=50.0, help="offered req/s")
    traffic.add_argument("--horizon", type=float, default=120.0, help="virtual seconds")
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--modes-per-region", type=int, default=3)

    slo = parser.add_argument_group("slo")
    slo.add_argument("--p99", type=float, default=0.2, help="max p99 latency (s)")
    slo.add_argument("--blocking", type=float, default=0.01, help="max blocking prob.")
    slo.add_argument(
        "--throughput-fraction",
        type=float,
        default=0.95,
        help="min served/offered fraction",
    )

    fleet = parser.add_argument_group("fleet")
    fleet.add_argument(
        "--dispatcher", choices=dispatcher_names(), default="least-loaded"
    )
    fleet.add_argument("--max-devices", type=int, default=1024)
    fleet.add_argument("--ports", type=int, default=1, help="ports per device")
    fleet.add_argument("--seconds-per-frame", type=float, default=1e-4)
    fleet.add_argument("--queue-capacity", type=int, default=64)
    fleet.add_argument(
        "--fault-rate", type=float, default=0.0, help="per-device faults per second"
    )
    fleet.add_argument("--repair-time", type=float, default=5.0)

    output = parser.add_argument_group("output")
    output.add_argument(
        "--sweep", type=str, default=None, help="rate multipliers, e.g. 0.5,1.0,2.0"
    )
    output.add_argument("--json", type=str, default=None, help="write JSON report here")
    output.add_argument(
        "--markdown", type=str, default=None, help="write markdown report here"
    )
    output.add_argument(
        "--quiet", action="store_true", help="suppress stdout (files only)"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    profile = default_profile(args.seconds_per_frame, args.ports)
    scenario = CapacityScenario(
        profile=profile,
        rate=args.rate,
        horizon=args.horizon,
        seed=args.seed,
        modes_per_region=args.modes_per_region,
        dispatcher=args.dispatcher,
        fault_rate=args.fault_rate,
        repair_time=args.repair_time,
        queue_capacity=args.queue_capacity,
    )
    slo = CapacitySLO(
        max_p99_latency_s=args.p99,
        max_blocking=args.blocking,
        min_throughput_fraction=args.throughput_fraction,
    )

    faults: dict = {}  # each device's fault draws, shared by the plan and the curve
    outcome = plan_min_devices(scenario, slo, max_devices=args.max_devices, faults=faults)
    multipliers = parse_multipliers(args.sweep)
    curve = (
        capacity_curve(
            scenario,
            slo,
            multipliers,
            max_devices=args.max_devices,
            planned={1.0: outcome},
            faults=faults,
        )
        if multipliers
        else None
    )
    document = plan_document(scenario, slo, outcome, curve=curve)

    markdown = render_markdown(document)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(render_json(document))
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(markdown)
    if not args.quiet:
        sys.stdout.write(markdown)
    return 0 if outcome.min_devices is not None else 2


if __name__ == "__main__":
    raise SystemExit(main())
