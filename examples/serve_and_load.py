#!/usr/bin/env python
"""Serving walkthrough: gateway startup, mixed hit/miss load, live metrics.

Starts the asyncio solve gateway on an ephemeral port (the same entry point
``python -m repro.server`` uses, here run on a background thread), throws a
cold closed-loop workload at it over real loopback HTTP, replays the same
workload warm to show the end-to-end cache-hit path, fires an open-loop
Poisson burst through a deliberately-tight rate limiter to show admission
control shedding, and finally prints the ``/metrics`` analysis tables.

Run with::

    python examples/serve_and_load.py
"""

import time

from repro.server import BackgroundGateway, GatewayConfig
from repro.server.loadgen import demo_payloads, run_closed_loop, run_open_loop


def burst_refill_s(config: GatewayConfig) -> float:
    """Seconds for an empty token bucket to refill to its full burst."""
    return config.rate_burst / config.rate_limit


def main() -> None:
    # 1. gateway: one solver thread per CPU core (the default), one cache
    #    miss per solve, per-client rate limit of 40 req/s (burst 10)
    config = GatewayConfig(
        port=0,  # ephemeral: read the bound port back from the handle
        rate_limit=40.0,
        rate_burst=10.0,
    )
    payloads = demo_payloads(unique=4, time_limit=30.0)

    with BackgroundGateway(config) as background:
        print(f"gateway listening on http://{background.host}:{background.port}\n")

        # 2. cold run: every unique job is a cache miss; concurrent duplicates
        #    join the solve of their job and are deduplicated
        cold = run_closed_loop(
            background.host, background.port, payloads, clients=4, requests_per_client=4
        )
        print("cold closed-loop:", cold.summary())

        # 3. warm replay: identical requests -> served inline from the cache.
        #    let the rate-limit bucket refill first: a fast cold run can end
        #    with it drained, and the warm replay is near-instant (all hits)
        time.sleep(burst_refill_s(config))
        warm = run_closed_loop(
            background.host, background.port, payloads, clients=4, requests_per_client=4
        )
        print("warm closed-loop:", warm.summary())
        assert warm.hit_rate >= 0.9, "warm replay should be >= 90% cache hits"

        # 4. open-loop Poisson burst at 3x the rate limit: admission control
        #    sheds the excess with 429s instead of building a backlog
        burst = run_open_loop(
            background.host, background.port, payloads,
            rate=120.0, horizon=1.0, seed=11,
        )
        print("open-loop burst: ", burst.summary())

        # 5. the /metrics document, rendered through repro.analysis tables
        snapshot = background.gateway.metrics_snapshot()
        print()
        print(snapshot["tables"]["counters"])
        print()
        print(snapshot["tables"]["latency"])

    print("\ngateway drained cleanly")


if __name__ == "__main__":
    main()
