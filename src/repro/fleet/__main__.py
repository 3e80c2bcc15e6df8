"""Command-line entry point: ``python -m repro.fleet``.

Spawns the replica fleet, starts the router frontend, and serves until
SIGINT/SIGTERM.  The replicas spawn first and the router module is imported
while they boot, so the two start-ups overlap instead of queueing; the router
loads no solver stack.  On shutdown the router drains first (so clients get
clean 503s instead of resets), then the replicas are stopped, then the
fleet-wide metrics roll-up is printed.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import tempfile
from typing import Mapping, Optional, Sequence

from repro.fleet.hashing import DEFAULT_VNODES
from repro.fleet.manager import FleetConfig, FleetManager


async def serve(
    fleet_config: FleetConfig, router_settings: Mapping[str, object], quiet: bool = False
) -> None:
    """Run the fleet until SIGINT/SIGTERM.

    ``router_settings`` are the :class:`~repro.fleet.router.RouterConfig`
    fields.  The replicas are spawned before the router module is imported,
    and every replica is stopped however serving ends.
    """
    manager = FleetManager(fleet_config)
    manager.start(wait_healthy=False)
    try:
        from repro.fleet.router import FleetRouter, RouterConfig

        router_config = RouterConfig(**router_settings)
        manager.wait_all_healthy(fleet_config.health_timeout)
        router = FleetRouter(manager.addresses, router_config)
        await router.start()
        if not quiet:
            ports = ", ".join(str(port) for port in manager.ports)
            print(
                f"repro.fleet: {fleet_config.replicas} replica(s) on ports "
                f"[{ports}], router on http://{router_config.host}:{router.port}, "
                f"cache tier at {fleet_config.cache_dir}",
                flush=True,
            )

        async def print_rollup() -> None:
            # roll up while the replicas are still alive to answer
            with contextlib.suppress(Exception):
                rollup = await router.metrics_rollup()
                print(rollup["tables"]["counters"], flush=True)

        await router.serve_until_signal(
            quiet=quiet, before_drain=None if quiet else print_rollup
        )
    finally:
        manager.stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Serve floorplanning solves from a sharded replica fleet.",
    )
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8770, help="router port")
    parser.add_argument(
        "--base-port", type=int, default=0,
        help="first replica port (0 = ephemeral per replica)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared cache-tier directory (default: a fresh temp directory)",
    )
    parser.add_argument(
        "--vnodes", type=int, default=DEFAULT_VNODES,
        help="virtual nodes per replica on the hash ring",
    )
    parser.add_argument(
        "--backoff-base", type=float, default=0.25,
        help="first restart delay for a crashed replica (s)",
    )
    parser.add_argument(
        "--shed-watermark", type=float, default=0.0,
        help="mean replica queue depth past which the router sheds at the "
        "front door with Retry-After (0 = disabled)",
    )
    parser.add_argument(
        "--server-arg", action="append", default=[], metavar="ARG",
        help="extra argument passed through to every `python -m repro.server` "
        "replica (repeatable, e.g. --server-arg=--solver-threads --server-arg=16)",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="disable request tracing on the router (/debug/traces -> 404)",
    )
    parser.add_argument(
        "--trace-sink", default=None, metavar="PATH",
        help="append the router's completed traces to this rotating JSONL "
        "file (feed it to `python -m repro.obs export` for capture->replay)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-fleet-cache-")
    fleet_config = FleetConfig(
        replicas=args.replicas,
        host=args.host,
        base_port=args.base_port,
        cache_dir=cache_dir,
        server_args=tuple(args.server_arg),
        backoff_base=args.backoff_base,
    )
    router_settings = dict(
        host=args.host,
        port=args.port,
        vnodes=args.vnodes,
        shed_watermark=args.shed_watermark if args.shed_watermark > 0 else None,
        tracing=not args.no_trace,
        trace_sink=args.trace_sink,
    )
    try:
        asyncio.run(serve(fleet_config, router_settings, quiet=args.quiet))
    except KeyboardInterrupt:  # pragma: no cover - ^C before the handler installs
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
