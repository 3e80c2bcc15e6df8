"""Load-testing harness for the solve gateway.

Two canonical load shapes:

* **closed loop** — ``clients`` concurrent clients, each holding one
  keep-alive connection and sending its next request the moment the previous
  response lands.  Throughput is concurrency-limited; this is the shape of a
  worker fleet draining a work list.
* **open loop** — requests fire at externally-scheduled Poisson arrival
  instants (generated by :class:`repro.sim.traffic.PoissonTraffic`, the same
  arrival machinery the discrete-event simulator uses), regardless of whether
  earlier requests have completed.  This is the shape of independent user
  traffic, and the one that exposes queueing collapse and load shedding.

Both report a :class:`LoadResult` with exact (nearest-rank) latency
percentiles, throughput, hit rate and shed rate.  The module doubles as the
CI smoke client::

    python -m repro.server.loadgen --port 8765 --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.server.http import open_connection, round_trip
from repro.server.protocol import DEADLINE_HEADER

__all__ = [
    "GatewayClient",
    "LoadResult",
    "ReplayOutcome",
    "demo_payloads",
    "closed_loop",
    "open_loop",
    "replay_loop",
    "run_closed_loop",
    "run_open_loop",
    "run_replay",
    "fetch_json",
    "fetch_metrics_json",
    "run_fleet_smoke",
]


class GatewayClient:
    """One keep-alive connection to a gateway (or a fleet router) speaking
    JSON: request bodies are encoded, response bodies decoded."""

    def __init__(self, host: str, port: int, client_id: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.last_headers: Dict[str, str] = {}  # of the most recent response
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "GatewayClient":
        self._reader, self._writer = await open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "GatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        payload: object = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ):
        """One request/response over the keep-alive connection.

        The response's headers land in :attr:`last_headers` (lower-cased
        names) so callers can assert on ``Retry-After`` or read the
        replica's ``X-Repro-Queue-Depth`` without changing the
        ``(status, payload)`` return shape every load shape relies on.
        """
        assert self._writer is not None and self._reader is not None, "not connected"
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"X-Client-Id": self.client_id} if self.client_id else {}
        headers.update(extra_headers or {})
        status, self.last_headers, raw = await round_trip(
            self._reader, self._writer, method, path, f"{self.host}:{self.port}",
            body, headers,
        )
        if not raw:
            return status, None
        try:
            return status, json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return status, raw

    async def solve(
        self, payload: Dict[str, object], deadline: Optional[float] = None
    ):
        extra = {DEADLINE_HEADER: f"{deadline:.6f}"} if deadline is not None else None
        return await self.request("POST", "/solve", payload, extra_headers=extra)

    async def healthz(self):
        return await self.request("GET", "/healthz")

    async def metrics(self):
        return await self.request("GET", "/metrics")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LoadResult:
    """Aggregate outcome of one load run."""

    latencies_s: List[float]
    statuses: List[int]
    cached: List[bool]
    wall_time: float

    @property
    def sent(self) -> int:
        return len(self.statuses)

    @property
    def ok(self) -> int:
        return sum(1 for status in self.statuses if status == 200)

    @property
    def shed(self) -> int:
        return sum(1 for status in self.statuses if status == 429)

    @property
    def errors(self) -> int:
        return sum(1 for status in self.statuses if status >= 500)

    @property
    def hits(self) -> int:
        return sum(1 for flag in self.cached if flag)

    @property
    def hit_rate(self) -> float:
        """Fraction of 200 responses answered from the solve cache."""
        return self.hits / self.ok if self.ok else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.sent if self.sent else 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per wall-clock second."""
        return self.sent / self.wall_time if self.wall_time > 0 else float("inf")

    def latency_quantile(self, fraction: float) -> float:
        """Exact nearest-rank quantile over the recorded request latencies.

        Delegates to :func:`repro.sim.stats.percentile` so load-test numbers
        use the same rank convention as every other percentile in the repo.
        """
        from repro.sim.stats import percentile

        if not self.latencies_s:
            return 0.0
        return percentile(self.latencies_s, 100.0 * fraction)

    @property
    def p50_s(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99_s(self) -> float:
        return self.latency_quantile(0.99)

    def as_dict(self) -> Dict[str, float]:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "hits": self.hits,
            "hit_rate": round(self.hit_rate, 6),
            "shed_rate": round(self.shed_rate, 6),
            "throughput_rps": round(self.throughput, 3),
            "p50_ms": round(self.p50_s * 1e3, 3),
            "p99_ms": round(self.p99_s * 1e3, 3),
            "wall_time_s": round(self.wall_time, 3),
        }

    def summary(self) -> str:
        return (
            f"{self.sent} requests in {self.wall_time:.2f}s "
            f"({self.throughput:.1f} req/s): {self.ok} ok, {self.shed} shed "
            f"({100 * self.shed_rate:.0f}%), {self.errors} errors, "
            f"hit rate {100 * self.hit_rate:.0f}%, "
            f"p50 {self.p50_s * 1e3:.1f} ms, p99 {self.p99_s * 1e3:.1f} ms"
        )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def demo_payloads(
    unique: int = 4,
    time_limit: float = 20.0,
    mip_gap: float = 0.1,
    heavy: bool = False,
) -> List[Dict[str, object]]:
    """``unique`` distinct-fingerprint request bodies.

    Each payload is a CLB/BRAM floorplanning instance whose connection
    weight varies with the index — semantically a different design, so the
    payloads occupy distinct cache entries while costing the same to solve.
    The default instance is tiny (tens of milliseconds warm) so load tests
    measure the serving path; ``heavy=True`` produces a three-region
    instance costing a few hundred milliseconds per solve, for benchmarks
    where the *solve* must dominate coordination overhead (the fleet herd).
    """
    from repro.device.catalog import synthetic_device
    from repro.device.resources import ResourceVector
    from repro.floorplan.problem import Connection, FloorplanProblem, Region
    from repro.milp import SolverOptions
    from repro.server.protocol import job_to_dict
    from repro.service.jobs import SolveJob

    if unique <= 0:
        raise ValueError("unique must be positive")
    if heavy:
        device = synthetic_device(16, 8, bram_every=4, dsp_every=7, name="loadgen-heavy")
        regions = [
            Region("A", ResourceVector(CLB=8, BRAM=2)),
            Region("B", ResourceVector(CLB=6, BRAM=1, DSP=1)),
            Region("C", ResourceVector(CLB=10)),
        ]
    else:
        device = synthetic_device(10, 4, bram_every=4, dsp_every=7, name="loadgen-dev")
        regions = [
            Region("A", ResourceVector(CLB=3)),
            Region("B", ResourceVector(CLB=2, BRAM=1)),
        ]
    payloads = []
    for index in range(unique):
        connections = [Connection("A", "B", weight=4.0 + index)]
        if heavy:
            connections += [
                Connection("B", "C", weight=2.0),
                Connection("A", "C", weight=1.0),
            ]
        problem = FloorplanProblem(
            device,
            regions,
            connections,
            name=f"demo-{'heavy-' if heavy else ''}{index}",
        )
        job = SolveJob(
            problem,
            mode="HO",
            options=SolverOptions(time_limit=time_limit, mip_gap=mip_gap),
            tag=f"demo{index}",
        )
        payloads.append(job_to_dict(job))
    return payloads


# ----------------------------------------------------------------------
# load shapes
# ----------------------------------------------------------------------
async def closed_loop(
    host: str,
    port: int,
    payloads: Sequence[Dict[str, object]],
    clients: int = 4,
    requests_per_client: int = 8,
) -> LoadResult:
    """``clients`` keep-alive clients, each firing ``requests_per_client``
    requests back to back, round-robining over ``payloads``."""
    if clients <= 0 or requests_per_client <= 0:
        raise ValueError("clients and requests_per_client must be positive")
    latencies: List[float] = []
    statuses: List[int] = []
    cached: List[bool] = []

    async def one_client(index: int) -> None:
        async with GatewayClient(host, port, client_id=f"closed-{index}") as client:
            for step in range(requests_per_client):
                payload = payloads[(index + step * clients) % len(payloads)]
                started = time.perf_counter()
                status, body = await client.solve(payload)
                latencies.append(time.perf_counter() - started)
                statuses.append(status)
                cached.append(bool(isinstance(body, dict) and body.get("cached")))

    started = time.perf_counter()
    await asyncio.gather(*(one_client(index) for index in range(clients)))
    return LoadResult(latencies, statuses, cached, time.perf_counter() - started)


async def open_loop(
    host: str,
    port: int,
    payloads: Sequence[Dict[str, object]],
    rate: float,
    horizon: float,
    seed: int = 0,
    client_id: str = "open-loop",
) -> LoadResult:
    """Poisson arrivals at ``rate`` req/s for ``horizon`` seconds.

    Arrival instants come from :class:`repro.sim.traffic.PoissonTraffic`
    (seeded, so a load run is reproducible); each arrival fires on its own
    connection without waiting for earlier requests — true open-loop load.
    """
    from repro.sim.traffic import PoissonTraffic

    arrivals = [
        request.time
        for request in PoissonTraffic(["load"], rate=rate, seed=seed).generate(horizon)
    ]
    latencies: List[float] = []
    statuses: List[int] = []
    cached: List[bool] = []

    async def fire(index: int) -> None:
        payload = payloads[index % len(payloads)]
        try:
            async with GatewayClient(host, port, client_id=client_id) as client:
                started = time.perf_counter()
                status, body = await client.solve(payload)
                latencies.append(time.perf_counter() - started)
                statuses.append(status)
                cached.append(bool(isinstance(body, dict) and body.get("cached")))
        except (ConnectionError, OSError):
            statuses.append(599)  # connection-level failure
            cached.append(False)

    async def schedule() -> None:
        started = time.perf_counter()
        tasks = []
        for index, instant in enumerate(arrivals):
            delay = instant - (time.perf_counter() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(fire(index)))
        if tasks:
            await asyncio.gather(*tasks)

    started = time.perf_counter()
    await schedule()
    return LoadResult(latencies, statuses, cached, time.perf_counter() - started)


# ----------------------------------------------------------------------
# production-trace replay
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ReplayOutcome:
    """Outcome of replaying a capture: load numbers + fidelity bookkeeping.

    ``executed`` is the fingerprint sequence actually sent, in order — a
    faithful replay makes it equal to the capture's request sequence (minus
    ``skipped``, the fingerprints no provided payload could satisfy).
    """

    result: LoadResult
    executed: List[str]
    skipped: List[str]


async def replay_loop(
    host: str,
    port: int,
    capture: Dict[str, object],
    payloads: Sequence[Dict[str, object]],
    speed: float = 0.0,
    client_id: str = "replay",
) -> ReplayOutcome:
    """Re-send a captured request sequence (:mod:`repro.obs.capture`).

    Requests go out strictly in captured order on one keep-alive connection
    — order fidelity is the point, so the replay is sequential by design.
    ``speed`` scales the captured inter-arrival cadence: 1.0 replays at
    production speed, 2.0 twice as fast, and 0 (the default) back to back.

    Each captured fingerprint is resolved against ``payloads``: first by
    exact job fingerprint, then by job name (for payload sets regenerated
    with the same names but different parameters).  Unresolvable requests
    are skipped, not faked — they land in :attr:`ReplayOutcome.skipped`.
    """
    from repro.server.protocol import job_from_dict

    requests = capture.get("requests", [])
    if not isinstance(requests, list) or not requests:
        raise ValueError("capture carries no replayable requests")
    if speed < 0:
        raise ValueError("speed must be non-negative")

    by_fingerprint: Dict[str, Dict[str, object]] = {}
    by_name: Dict[str, Dict[str, object]] = {}
    for payload in payloads:
        job = job_from_dict(payload)
        by_fingerprint.setdefault(job.fingerprint, payload)
        by_name.setdefault(job.name, payload)

    latencies: List[float] = []
    statuses: List[int] = []
    cached: List[bool] = []
    executed: List[str] = []
    skipped: List[str] = []

    started = time.perf_counter()
    async with GatewayClient(host, port, client_id=client_id) as client:
        for request in requests:
            fingerprint = str(request.get("fingerprint", ""))
            payload = by_fingerprint.get(fingerprint) or by_name.get(
                str(request.get("job", ""))
            )
            if payload is None:
                skipped.append(fingerprint)
                continue
            if speed > 0:
                due = float(request.get("offset", 0.0)) / speed
                delay = due - (time.perf_counter() - started)
                if delay > 0:
                    await asyncio.sleep(delay)
            fired = time.perf_counter()
            status, body = await client.solve(payload)
            latencies.append(time.perf_counter() - fired)
            statuses.append(status)
            cached.append(bool(isinstance(body, dict) and body.get("cached")))
            executed.append(fingerprint)
    result = LoadResult(latencies, statuses, cached, time.perf_counter() - started)
    return ReplayOutcome(result=result, executed=executed, skipped=skipped)


def run_replay(*args, **kwargs) -> ReplayOutcome:
    """Synchronous wrapper around :func:`replay_loop`."""
    return asyncio.run(replay_loop(*args, **kwargs))


def run_closed_loop(*args, **kwargs) -> LoadResult:
    """Synchronous wrapper around :func:`closed_loop`."""
    return asyncio.run(closed_loop(*args, **kwargs))


def run_open_loop(*args, **kwargs) -> LoadResult:
    """Synchronous wrapper around :func:`open_loop`."""
    return asyncio.run(open_loop(*args, **kwargs))


# ----------------------------------------------------------------------
# fleet checks
# ----------------------------------------------------------------------
def fetch_json(
    host: str, port: int, path: str, timeout: Optional[float] = None
) -> Dict[str, object]:
    """``GET path`` from a gateway or router and return its JSON object.

    Raises :class:`OSError` when the endpoint cannot be reached within
    ``timeout`` seconds (``None``: no bound) or answers anything but a 200
    JSON object.
    """
    async def fetch():
        async with GatewayClient(host, port) as client:
            return await client.request("GET", path)

    status, body = asyncio.run(asyncio.wait_for(fetch(), timeout))
    if status != 200 or not isinstance(body, dict):
        raise ConnectionError(f"{host}:{port} {path} answered {status}")
    return body


def fetch_metrics_json(host: str, port: int) -> Dict[str, object]:
    """The machine-readable ``/metrics?format=json`` document of a gateway —
    or, pointed at a fleet router, the fleet-wide roll-up."""
    return fetch_json(host, port, "/metrics?format=json")


def run_fleet_smoke(replicas: int = 2, cache_dir: Optional[str] = None) -> int:
    """The CI fleet check: the cache tier must span processes.

    Spawns a ``replicas``-process fleet, sends one cold solve *directly* to
    the first replica (a miss), then the same payload directly to the last
    replica — which must answer it as a **hit** from the shared on-disk tier
    without solving again — then once more through the router.  Exits non-zero
    (with a diagnostic) the moment any leg misbehaves.
    """
    import tempfile

    from repro.fleet import BackgroundFleet

    payload = demo_payloads(unique=1)[0]
    cache_dir = cache_dir or tempfile.mkdtemp(prefix="repro-fleet-smoke-")
    with BackgroundFleet(replicas=replicas, cache_dir=cache_dir) as fleet:
        host = fleet.host
        first, last = fleet.manager.ports[0], fleet.manager.ports[-1]

        status, body = asyncio.run(_solve_once(host, first, payload, "smoke-cold"))
        if status != 200:
            print(f"fleet smoke FAIL: cold solve answered {status}: {body}",
                  file=sys.stderr)
            return 1
        if body.get("cached"):
            print("fleet smoke FAIL: first solve was unexpectedly cached",
                  file=sys.stderr)
            return 1

        status, body = asyncio.run(_solve_once(host, last, payload, "smoke-warm"))
        if status != 200 or not body.get("cached"):
            print(
                f"fleet smoke FAIL: replica on port {last} did not serve the "
                f"entry replica {first} stored (status {status}, "
                f"cached={body.get('cached') if isinstance(body, dict) else body})",
                file=sys.stderr,
            )
            return 1

        status, body = asyncio.run(_solve_once(host, fleet.port, payload, "smoke-router"))
        if status != 200 or not body.get("cached"):
            print(f"fleet smoke FAIL: router leg answered {status}", file=sys.stderr)
            return 1

        rollup = fetch_metrics_json(host, fleet.port)
        stores = rollup["cache"]["stores"]
        if stores != 1:
            print(f"fleet smoke FAIL: fleet-wide stores == {stores}, expected "
                  "exactly 1 solve for 1 unique job", file=sys.stderr)
            return 1
    print(
        f"fleet smoke OK: cold miss on replica :{first}, warm hit via replica "
        f":{last} and the router, fleet-wide stores == 1 across {replicas} replicas"
    )
    return 0


async def _solve_once(host: str, port: int, payload, client_id: str):
    async with GatewayClient(host, port, client_id=client_id) as client:
        status, body = await client.solve(payload)
    return status, body if isinstance(body, dict) else {}


# ----------------------------------------------------------------------
# CLI (the CI smoke client)
# ----------------------------------------------------------------------
async def _wait_healthy(host: str, port: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    last_error: Optional[BaseException] = None
    while time.monotonic() < deadline:
        try:
            async with GatewayClient(host, port) as client:
                status, _body = await client.healthz()
            if status == 200:
                return
        except (ConnectionError, OSError) as exc:
            last_error = exc
        await asyncio.sleep(0.2)
    raise SystemExit(f"gateway at {host}:{port} never became healthy: {last_error}")


async def _smoke(host: str, port: int, timeout: float) -> int:
    """Miss, then hit: the end-to-end cache-path check CI keys on."""
    await _wait_healthy(host, port, timeout)
    payload = demo_payloads(unique=1)[0]
    async with GatewayClient(host, port, client_id="smoke") as client:
        status, body = await client.solve(payload)
        if status != 200:
            print(f"smoke FAIL: first solve answered {status}: {body}", file=sys.stderr)
            return 1
        first_cached = isinstance(body, dict) and body.get("cached")
        status, body = await client.solve(payload)
        if status != 200:
            print(f"smoke FAIL: repeat solve answered {status}: {body}", file=sys.stderr)
            return 1
        if not (isinstance(body, dict) and body.get("cached")):
            print("smoke FAIL: repeat request was not a cache hit", file=sys.stderr)
            return 1
        # shed responses must carry an honest backoff hint: an
        # already-expired deadline is the cheapest way to provoke one
        status, body = await client.solve(payload, deadline=0.0)
        if status != 504:
            print(f"smoke FAIL: expired deadline answered {status}, expected 504",
                  file=sys.stderr)
            return 1
        if "retry-after" not in client.last_headers:
            print("smoke FAIL: 504 shed response carried no Retry-After header",
                  file=sys.stderr)
            return 1
        status, metrics = await client.metrics()
        hit_rate = metrics["counters"]["hit_rate"] if status == 200 else "n/a"
    print(
        f"smoke OK: first solve cached={bool(first_cached)}, repeat was a cache hit, "
        f"expired deadline shed with Retry-After, gateway hit_rate={hit_rate}"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.loadgen",
        description="Throw open- or closed-loop load at a running solve gateway.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--smoke", action="store_true", help="miss-then-hit CI check")
    parser.add_argument(
        "--fleet", type=int, default=0, metavar="REPLICAS",
        help="with --smoke: spawn a fleet of this many replicas and run the "
        "cross-replica shared-cache CI check",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared cache-tier directory for --fleet (default: fresh temp dir)",
    )
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument(
        "--replay", default=None, metavar="CAPTURE",
        help="replay a capture document (python -m repro.obs export) against "
        "the gateway instead of generating synthetic load",
    )
    parser.add_argument(
        "--speed", type=float, default=0.0,
        help="replay cadence multiplier (1.0 = captured timing, 0 = no waits)",
    )
    parser.add_argument("--clients", type=int, default=4, help="closed-loop clients")
    parser.add_argument("--requests", type=int, default=8, help="requests per client")
    parser.add_argument("--rate", type=float, default=50.0, help="open-loop req/s")
    parser.add_argument("--horizon", type=float, default=2.0, help="open-loop seconds")
    parser.add_argument("--unique", type=int, default=4, help="distinct payloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=30.0, help="healthz wait")
    args = parser.parse_args(argv)
    if args.fleet and not args.smoke:
        parser.error("--fleet needs --smoke; drive a fleet with python -m repro.fleet "
                     "plus --port")

    if args.fleet:
        return run_fleet_smoke(replicas=args.fleet, cache_dir=args.cache_dir)

    if args.smoke:
        return asyncio.run(_smoke(args.host, args.port, args.timeout))

    asyncio.run(_wait_healthy(args.host, args.port, args.timeout))
    payloads = demo_payloads(unique=args.unique)
    if args.replay:
        from repro.obs.capture import load_capture

        outcome = run_replay(
            args.host, args.port, load_capture(args.replay), payloads,
            speed=args.speed,
        )
        print(outcome.result.summary())
        print(json.dumps(
            {**outcome.result.as_dict(),
             "replayed": len(outcome.executed),
             "skipped": len(outcome.skipped)},
            indent=2,
        ))
        return 1 if outcome.skipped else 0
    if args.mode == "closed":
        result = run_closed_loop(
            args.host, args.port, payloads,
            clients=args.clients, requests_per_client=args.requests,
        )
    else:
        result = run_open_loop(
            args.host, args.port, payloads,
            rate=args.rate, horizon=args.horizon, seed=args.seed,
        )
    print(result.summary())
    print(json.dumps(result.as_dict(), indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    raise SystemExit(main())
