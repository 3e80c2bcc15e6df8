"""Command-line entry point: ``python -m repro.server``.

Starts a gateway and serves until SIGINT/SIGTERM, then drains gracefully
(refuse new work with 503, finish in-flight batches, close the listener).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from repro.server.gateway import GatewayConfig, SolveGateway


def build_config(args: argparse.Namespace) -> GatewayConfig:
    return GatewayConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_queue_depth=args.queue_depth if args.queue_depth > 0 else None,
        rate_limit=args.rate_limit,
        shards=args.shards,
        batch_workers=args.batch_workers,
        cache_dir=args.cache_dir,
        cache_capacity=args.cache_capacity if args.cache_capacity > 0 else None,
        trust_client_id=args.trust_client_id,
        brownout_watermark=(
            args.brownout_watermark if args.brownout_watermark > 0 else None
        ),
        tracing=not args.no_trace,
        trace_capacity=args.trace_capacity,
        trace_sink=args.trace_sink,
    )


async def serve(config: GatewayConfig, quiet: bool = False) -> None:
    gateway = SolveGateway(config)
    await gateway.start()
    if not quiet:
        depth = config.max_queue_depth or "unbounded"
        print(
            f"repro.server listening on http://{config.host}:{gateway.port} "
            f"(batches of up to {config.max_batch} on {config.shards} shard(s), "
            f"queue depth {depth})",
            flush=True,
        )

    await gateway.serve_until_signal(quiet=quiet)
    if not quiet:
        print(gateway.metrics_snapshot()["tables"]["counters"], flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve floorplanning solve requests over JSON/HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--max-batch", type=int, default=8, help="unique jobs per batch cap")
    parser.add_argument(
        "--queue-depth", type=int, default=64, help="solver queue bound (0 = unbounded)"
    )
    parser.add_argument(
        "--rate-limit", type=float, default=None, help="per-client requests/second"
    )
    parser.add_argument("--shards", type=int, default=2, help="concurrent worker shards")
    parser.add_argument(
        "--batch-workers", type=int, default=4, help="solver workers per shard"
    )
    parser.add_argument("--cache-dir", default=None, help="persist solve results here")
    parser.add_argument(
        "--trust-client-id", action="store_true",
        help="rate-limit by X-Client-Id header (only behind an authenticating proxy)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=1024,
        help="in-memory LRU entries (0 = unbounded)",
    )
    parser.add_argument(
        "--brownout-watermark", type=int, default=0,
        help="queue depth past which fresh solves are clamped to the minimum "
        "time limit and may answer degraded (0 = disabled)",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="disable request tracing (/debug/traces answers 404)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=256,
        help="completed traces kept in the in-memory ring",
    )
    parser.add_argument(
        "--trace-sink", default=None, metavar="PATH",
        help="also append completed traces to this rotating JSONL file "
        "(feed it to `python -m repro.obs export` for capture->replay)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        asyncio.run(serve(build_config(args), quiet=args.quiet))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C before handler installs
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
