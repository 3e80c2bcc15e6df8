"""The fleet's front door: consistent-hash routing over replica gateways.

A :class:`FleetRouter` is a stdlib-asyncio HTTP frontend that owns no solver
at all, and importing this module loads no scipy or MILP code (the fleet
entry point imports it while the replicas boot).  For every ``POST /solve``
it reads the body's job fingerprint through
the same :meth:`~repro.server.http.HttpServer.decode_job` the gateway uses: a
body seen before is a decode-memo hit, keyed on the event loop without a
parse; a new one is decoded into a fingerprint-exact
:class:`~repro.service.jobs.SolveJob` off the loop.  The request is forwarded,
body bytes untouched, to the replica that **owns** that fingerprint on the
:class:`~repro.fleet.hashing.HashRing`.  Ownership is what
makes the fleet's caches compose: repeats of a job land where its entry is
already memory-hot, and concurrent identical misses meet in one process where
the micro-batcher joins them onto one solve.  The ring plus the batcher's
join is the fleet's single-flight; there is no cross-replica lock.

Per-replica **keep-alive upstream pools** recycle connections between
requests; an upstream that refuses or drops a connection is marked down for a
cooldown and the request is retried on the next replica in the ring's
deterministic preference order.  When the whole fleet is momentarily down
(e.g. the only replica is mid-restart), the router keeps sweeping the
preference list until ``retry_deadline`` — so killing a replica under load
costs latency, never failed client requests, as long as the supervisor
restarts it within the budget.

``GET /metrics`` serves a **fleet-wide roll-up**: counters summed across the
replicas' machine-readable ``/metrics?format=json`` documents into the
gateway's own :class:`~repro.server.metrics.GatewayMetrics` and
:class:`~repro.service.cache.CacheStats` (so rates derive by the gateway's
formulas), latency
histograms merged bucket-by-bucket (:func:`repro.server.metrics.
merge_raw_histograms` — exact, unlike averaging rendered percentiles), plus
the router's own routing/retry counters.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.breaker import CircuitBreaker
from repro.fleet.hashing import DEFAULT_VNODES, HashRing
from repro.obs.trace import (
    TRACE_HEADER,
    TRACE_SCHEMA_VERSION,
    Span,
    Trace,
    format_trace_header,
)
from repro.server.http import (
    HttpError,
    HttpRequest,
    HttpServer,
    open_connection,
    render_tables,
    round_trip,
)
from repro.server.metrics import GatewayMetrics, LatencyHistogram, merge_raw_histograms
from repro.server.protocol import (
    DEADLINE_HEADER,
    NO_FLOORPLAN_HEADER,
    QUEUE_DEPTH_HEADER,
    ProtocolError,
    parse_deadline,
)
from repro.service.cache import CacheStats
from repro.utils.buildinfo import git_rev

__all__ = ["RouterConfig", "FleetRouter", "UpstreamError", "UpstreamPool"]

#: Seconds to establish one upstream connection.
CONNECT_TIMEOUT = 2.0
#: Keep-alive connections pooled per replica.
UPSTREAM_IDLE_MAX = 16
#: Upper bound on the between-sweep retry backoff, in seconds.
RETRY_WAIT_CAP = 1.0
#: Smoothing factor of the per-replica queue-depth EWMA fed by the
#: ``X-Repro-Queue-Depth`` response header.
DEPTH_EWMA_ALPHA = 0.3


class UpstreamError(ConnectionError):
    """A replica could not be reached or dropped the connection mid-request."""


@dataclasses.dataclass(frozen=True)
class RouterConfig:
    """Tunables of the router frontend.

    Attributes
    ----------
    host, port:
        Downstream listen address (``port=0`` binds an ephemeral port).
    vnodes:
        Virtual nodes per replica on the hash ring.
    down_cooldown:
        Seconds a failed upstream's circuit stays open before a half-open
        probe is admitted (the breaker's ``open_for``).  One failure opens
        the circuit.
    retry_deadline:
        Total per-request retry budget across preference sweeps; the router
        answers 503 only after the whole fleet stayed unreachable this long.
        A client deadline tighter than this caps the budget per request.
    retry_wait:
        Base pause between full sweeps of the preference list; successive
        sweeps back off exponentially (doubling, capped at
        :data:`RETRY_WAIT_CAP`) with full jitter so concurrent retriers
        spread out instead of sweeping in lockstep.
    backoff_seed:
        Seed for the jitter RNG (deterministic retries in tests).
    shed_watermark:
        Fleet-wide mean queue depth (per-replica EWMA averaged over live
        replicas) past which new solves are shed at the front door with 503
        and an honest ``Retry-After``.  ``None`` disables front-door
        shedding.
    tracing, trace_capacity, trace_sink:
        When ``tracing`` is on (the default) the router mints a trace id per
        ``/solve``, records decode + per-attempt forward spans into a bounded
        ring of ``trace_capacity`` traces (``GET /debug/traces``), and
        propagates the id downstream in ``X-Repro-Trace`` so replica-side
        fragments share it.  ``trace_sink`` additionally appends completed
        traces to a rotating JSONL file for capture→replay.
    """

    host: str = "127.0.0.1"
    port: int = 8770
    vnodes: int = DEFAULT_VNODES
    down_cooldown: float = 0.5
    retry_deadline: float = 15.0
    retry_wait: float = 0.05
    backoff_seed: Optional[int] = None
    shed_watermark: Optional[float] = None
    tracing: bool = True
    trace_capacity: int = 256
    trace_sink: Optional[str] = None

    def __post_init__(self) -> None:
        if self.retry_deadline <= 0 or self.retry_wait < 0:
            raise ValueError("retry_deadline must be positive, retry_wait >= 0")
        if self.shed_watermark is not None and self.shed_watermark <= 0:
            raise ValueError("shed_watermark must be positive (or None)")


class UpstreamPool:
    """Keep-alive connection pool, circuit breaker and load estimate for one
    replica."""

    def __init__(self, host: str, port: int, config: RouterConfig) -> None:
        self.host = host
        self.port = port
        self.node = f"{host}:{port}"
        self.config = config
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.breaker = CircuitBreaker(open_for=config.down_cooldown)
        self.routed = 0
        self.failures = 0
        #: EWMA of the replica's self-reported micro-batcher queue depth
        #: (``X-Repro-Queue-Depth`` on every response); ``None`` until the
        #: replica has answered once.
        self.depth_ewma: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def down(self) -> bool:
        """Is the circuit open right now?  (Non-mutating: reporting only —
        the routing sweep uses :meth:`CircuitBreaker.allow`, which also
        admits the single half-open probe.)"""
        return self.breaker.state == "open"

    def mark_down(self) -> None:
        self.failures += 1
        self.breaker.record_failure()

    def mark_up(self) -> None:
        self.breaker.record_success()

    def observe_depth(self, headers: Dict[str, str]) -> None:
        """Fold a response's queue-depth report into the load EWMA."""
        raw = headers.get(QUEUE_DEPTH_HEADER.lower())
        if raw is None:
            return
        try:
            depth = float(raw)
        except ValueError:
            return
        if self.depth_ewma is None:
            self.depth_ewma = depth
        else:
            self.depth_ewma = (
                DEPTH_EWMA_ALPHA * depth + (1.0 - DEPTH_EWMA_ALPHA) * self.depth_ewma
            )

    # ------------------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One round trip on a pooled connection; :class:`UpstreamError` on
        any transport failure or malformed response (the connection is
        discarded, never reused).  Returns ``(status, lower-cased response
        headers, body)``."""
        reader, writer = await self._checkout()
        try:
            status, response_headers, response_body = await round_trip(
                reader, writer, method, path, self.node, body, headers
            )
        except (ConnectionError, OSError) as exc:
            self._discard(writer)
            raise UpstreamError(f"{self.node}: {exc}") from exc
        keep = response_headers.get("connection", "keep-alive").lower() != "close"
        if keep and len(self._idle) < UPSTREAM_IDLE_MAX:
            self._idle.append((reader, writer))
        else:
            self._discard(writer)
        self.mark_up()
        self.observe_depth(response_headers)
        return status, response_headers, response_body

    async def _checkout(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while self._idle:
            reader, writer = self._idle.pop()
            # at_eof: the replica closed its end while idle (it was killed or
            # restarted); sending on it would fail as if the replica were down
            if not writer.is_closing() and not reader.at_eof():
                return reader, writer
            self._discard(writer)
        try:
            return await open_connection(self.host, self.port, timeout=CONNECT_TIMEOUT)
        except (ConnectionError, OSError) as exc:
            raise UpstreamError(f"{self.node}: {exc}") from exc

    def _discard(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except (ConnectionError, OSError):
            pass

    async def close(self) -> None:
        while self._idle:
            _reader, writer = self._idle.pop()
            self._discard(writer)


@dataclasses.dataclass
class RouterMetrics:
    """The router's own counters (replica counters live in the roll-up)."""

    received: int = 0  # solve requests accepted off the wire
    routed: int = 0  # solve requests answered by an upstream
    bad_requests: int = 0  # undecodable bodies answered 400 here
    decode_memo_hits: int = 0  # bodies keyed from the decode memo, not parsed
    retries: int = 0  # forward attempts beyond the first
    failovers: int = 0  # requests NOT answered by their ring owner
    unavailable: int = 0  # 503s after the retry budget ran out
    rejected_draining: int = 0
    shed_overload: int = 0  # 503s: fleet-wide queue depth over the watermark
    deadline_expired: int = 0  # 504s answered at the router (budget ran out)

    def __post_init__(self) -> None:
        self.latency = LatencyHistogram()

    def as_dict(self) -> Dict[str, object]:
        return {
            "received": self.received,
            "routed": self.routed,
            "bad_requests": self.bad_requests,
            "decode_memo_hits": self.decode_memo_hits,
            "retries": self.retries,
            "failovers": self.failovers,
            "unavailable": self.unavailable,
            "rejected_draining": self.rejected_draining,
            "shed_overload": self.shed_overload,
            "deadline_expired": self.deadline_expired,
        }


class FleetRouter(HttpServer):
    """Listen, route, retry, roll up."""

    kind = "router"
    title = "repro fleet router"

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        config: Optional[RouterConfig] = None,
    ) -> None:
        if not addresses:
            raise ValueError("a router needs at least one replica address")
        config = config or RouterConfig()
        super().__init__(config)
        self.pools: Dict[str, UpstreamPool] = {}
        for host, port in addresses:
            pool = UpstreamPool(host, port, self.config)
            self.pools[pool.node] = pool
        self.ring = HashRing(list(self.pools), vnodes=self.config.vnodes)
        self.metrics = RouterMetrics()
        self._jitter = random.Random(self.config.backoff_seed)
        self._started = time.time()
        self.route("POST", "/solve", self._solve)

    async def drain(self) -> None:
        await super().drain()
        for pool in self.pools.values():
            await pool.close()

    # ------------------------------------------------------------------
    # the solve route: decode (memo first) -> ring -> forward with retries
    # ------------------------------------------------------------------
    async def _solve(self, request: HttpRequest):
        # the router is normally where the trace id is minted (clients
        # rarely send the header); replicas continue it downstream
        return await self.traced(
            request,
            request.header("x-client-id") or None,
            lambda trace, root: self._solve_inner(request, trace, root),
        )

    async def _solve_inner(
        self, request: HttpRequest, trace: Optional[Trace], root: Optional[Span]
    ):
        self.metrics.received += 1
        arrival = time.monotonic()
        if self._draining:
            self.metrics.rejected_draining += 1
            return 503, {"error": "router is draining"}, {"Retry-After": "1"}

        # per-request budget: header first (cheap, pre-decode), body second
        try:
            budget = parse_deadline(request.header(DEADLINE_HEADER) or None)
        except ProtocolError as exc:
            self.metrics.bad_requests += 1
            return 400, {"error": str(exc)}, None
        if budget is not None and budget <= 0:
            return self._expired(trace, root, budget)

        # replica-aware front-door shed: when the fleet-wide queue depth
        # (mean of the per-replica EWMAs) crosses the watermark, refuse here
        # with an honest Retry-After instead of queueing the request into a
        # backlog it would time out inside anyway
        shed_after = self._overload_retry_after()
        if shed_after is not None:
            self.metrics.shed_overload += 1
            if trace is not None:
                now = time.perf_counter()
                trace.add_span(
                    "router.shed", now, now, parent=root,
                    reason="overload", retry_after=shed_after,
                )
            return (
                503,
                {"error": "shed", "reason": "fleet_overloaded"},
                {"Retry-After": str(shed_after)},
            )

        started = time.perf_counter()
        try:
            key, job = await self.decode_job(request, trace, root)
        except (HttpError, ProtocolError) as exc:
            self.metrics.bad_requests += 1
            return 400, {"error": str(exc)}, None
        if job is None:
            self.metrics.decode_memo_hits += 1
        if budget is None:
            budget = key.deadline_s
        deadline_at = arrival + budget if budget is not None else None
        if deadline_at is not None and time.monotonic() >= deadline_at:
            return self._expired(trace, root, budget)

        forward_headers: Dict[str, str] = {}
        client_id = request.header("x-client-id")
        if client_id:
            forward_headers["X-Client-Id"] = client_id
        if trace is not None:
            # the replica's gateway fragment hangs off this router's root
            # span, stitching the two processes' spans into one request story
            forward_headers[TRACE_HEADER] = format_trace_header(
                trace.trace_id, root.span_id
            )

        preference = list(self.ring.preference(key.fingerprint))
        # the retry budget is derived from the client's deadline when one is
        # given: a 2 s request must not be swept for the full retry_deadline
        retry_budget = self.config.retry_deadline
        if budget is not None:
            retry_budget = min(retry_budget, budget)
        deadline = arrival + retry_budget
        attempt = 0
        sweep = 0
        while True:
            for rank, node in enumerate(preference):
                pool = self.pools[node]
                if not pool.breaker.allow() and time.monotonic() < deadline:
                    continue  # circuit open: skip while other replicas remain
                attempt += 1
                if attempt > 1:
                    self.metrics.retries += 1
                if deadline_at is not None:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:
                        return self._expired(trace, root, budget)
                    # re-stamp the header so each hop sees an honest budget
                    forward_headers[DEADLINE_HEADER] = f"{remaining:.6f}"
                forward_started = time.perf_counter()
                try:
                    status, resp_headers, body = await pool.request(
                        "POST", "/solve", request.body, forward_headers
                    )
                except UpstreamError as exc:
                    pool.mark_down()
                    if trace is not None:
                        trace.add_span(
                            "router.forward", forward_started, time.perf_counter(),
                            parent=root, node=node, rank=rank, attempt=attempt,
                            error=str(exc),
                        )
                    continue
                if trace is not None:
                    trace.add_span(
                        "router.forward", forward_started, time.perf_counter(),
                        parent=root, node=node, rank=rank, attempt=attempt,
                        status=status,
                    )
                if status == 503 and NO_FLOORPLAN_HEADER.lower() not in resp_headers:
                    # the replica is draining (mid-restart): retryable, the
                    # solve is idempotent and the cache absorbs duplicates
                    pool.mark_down()
                    continue
                if status == 504:
                    # the replica reports the budget expired downstream: final
                    # for this request, never worth a retry
                    self.metrics.deadline_expired += 1
                pool.routed += 1
                self.metrics.routed += 1
                if rank > 0:
                    self.metrics.failovers += 1
                self.metrics.latency.observe(time.perf_counter() - started)
                # relayed verbatim as the replica's JSON bytes (sent as
                # application/json): no decode/encode round trip, and a
                # shed's Retry-After kept, with a no-floorplan 503's marker
                retry_after = resp_headers.get("retry-after")
                if not retry_after:
                    return status, body, None
                relayed = {"Retry-After": retry_after}
                if NO_FLOORPLAN_HEADER.lower() in resp_headers:
                    relayed[NO_FLOORPLAN_HEADER] = resp_headers[NO_FLOORPLAN_HEADER.lower()]
                return status, body, relayed
            if time.monotonic() >= deadline:
                break
            # full sweep failed (or every circuit was open): back off with
            # full jitter — exponential so a dead fleet is not hammered, and
            # jittered so concurrent retriers do not sweep in lockstep
            ceiling = min(RETRY_WAIT_CAP, self.config.retry_wait * (2 ** sweep))
            delay = self._jitter.uniform(0.0, ceiling)
            sweep += 1
            delay = min(delay, max(0.0, deadline - time.monotonic()))
            if delay > 0:
                await asyncio.sleep(delay)
        if deadline_at is not None and time.monotonic() >= deadline_at:
            return self._expired(trace, root, budget)
        self.metrics.unavailable += 1
        return 503, {"error": "no replica reachable"}, {"Retry-After": "1"}

    def _expired(self, trace: Optional[Trace], root: Optional[Span], budget):
        """Answer 504 at the router: the client's budget is already gone."""
        self.metrics.deadline_expired += 1
        if trace is not None:
            now = time.perf_counter()
            trace.add_span(
                "deadline.expired", now, now, parent=root, budget_s=budget,
            )
        return (
            504,
            {"error": "deadline expired", "reason": "deadline_expired"},
            {"Retry-After": "1"},
        )

    def _overload_retry_after(self) -> Optional[int]:
        """Seconds to advertise in ``Retry-After`` when shedding for overload,
        or ``None`` while the fleet is under its watermark (or unmeasured)."""
        watermark = self.config.shed_watermark
        if watermark is None:
            return None
        depths = [
            pool.depth_ewma for pool in self.pools.values()
            if pool.depth_ewma is not None and not pool.down
        ]
        if not depths:
            return None
        mean_depth = sum(depths) / len(depths)
        if mean_depth < watermark:
            return None
        # honest hint: the backlog's expected drain time at the observed mean
        # per-request service latency, bounded to something a client will obey
        mean_latency = self.metrics.latency.mean
        estimate = mean_depth * max(mean_latency, 0.05)
        return max(1, min(30, round(estimate)))

    # ------------------------------------------------------------------
    # health and the fleet-wide metrics roll-up
    # ------------------------------------------------------------------
    def breakers_open(self) -> int:
        """How many upstream circuits are open right now."""
        return sum(1 for pool in self.pools.values() if pool.down)

    def health(self) -> Dict[str, object]:
        replicas = [
            {
                "node": pool.node,
                "up": not pool.down,
                "breaker": pool.breaker.state,
                "queue_depth_ewma": (
                    round(pool.depth_ewma, 3) if pool.depth_ewma is not None else None
                ),
                "routed": pool.routed,
            }
            for pool in self.pools.values()
        ]
        status = "draining" if self._draining else (
            "ok" if any(r["up"] for r in replicas) else "degraded"
        )
        return {
            "status": status,
            "replicas": replicas,
            "uptime_seconds": round(time.time() - self._started, 3),
            "git_rev": git_rev(),
            "trace_schema": TRACE_SCHEMA_VERSION,
            "tracing": self.recorder is not None,
        }

    async def _fetch_replica_metrics(self, pool: UpstreamPool) -> Optional[Dict]:
        try:
            status, _headers, body = await pool.request("GET", "/metrics?format=json")
        except UpstreamError:
            pool.mark_down()
            return None
        if status != 200:
            return None
        try:
            return json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None

    async def metrics_rollup(self, raw: bool = False) -> Dict[str, object]:
        """Fleet-wide ``/metrics``: summed counters + merged histograms.

        Replicas are scraped concurrently over their keep-alive pools; one
        that is down is simply absent from the roll-up (and listed in
        ``replicas`` with ``reporting: false``).
        """
        pools = list(self.pools.values())
        snapshots = await asyncio.gather(
            *(self._fetch_replica_metrics(pool) for pool in pools)
        )
        summed = GatewayMetrics()
        cache = CacheStats()
        queue_depth = 0
        uptime = 0.0
        merged_raws: Dict[str, List[Dict]] = {}
        replicas = []
        for pool, snapshot in zip(pools, snapshots):
            replicas.append(
                {
                    "node": pool.node,
                    "reporting": snapshot is not None,
                    "routed": pool.routed,
                    "failures": pool.failures,
                    "breaker": pool.breaker.state,
                    "queue_depth_ewma": (
                        round(pool.depth_ewma, 3)
                        if pool.depth_ewma is not None
                        else None
                    ),
                }
            )
            if snapshot is None:
                continue
            replica_counters = snapshot.get("counters", {})
            _add_fields(summed, replica_counters)
            _add_fields(cache, snapshot.get("cache", {}))
            queue_depth += replica_counters.get("queue_depth", 0)
            uptime = max(uptime, replica_counters.get("uptime_s", 0.0))
            for name, histogram_raw in snapshot.get("histograms", {}).items():
                merged_raws.setdefault(name, []).append(histogram_raw)
        counters = summed.counters(queue_depth=queue_depth)
        counters["uptime_s"] = round(uptime, 3)

        merged = {
            name: merge_raw_histograms(raws) for name, raws in merged_raws.items()
        }
        latency = {
            name: histogram.summary()
            for name, histogram in merged.items()
            if name != "batch_size"
        }
        document: Dict[str, object] = {
            "router": {
                **self.metrics.as_dict(),
                "breakers_open": self.breakers_open(),
                "latency": self.metrics.latency.summary(),
            },
            "counters": counters,
            "latency": latency,
            "cache": cache.as_dict(),
            "replicas": replicas,
            "replicas_reporting": sum(1 for r in replicas if r["reporting"]),
        }
        if raw:
            document["histograms"] = {
                name: histogram.raw() for name, histogram in merged.items()
            }
            return document
        return render_tables(
            document,
            f"fleet counters ({document['replicas_reporting']} replicas)",
            "fleet request latency (s)",
        )

    metrics_document = metrics_rollup


def _add_fields(total, snapshot: Dict[str, float]) -> None:
    """Add a replica's raw counts of ``total``'s dataclass fields into it."""
    for field in dataclasses.fields(total):
        name = field.name
        setattr(total, name, getattr(total, name) + snapshot.get(name, 0))
