"""The asyncio solve gateway: HTTP front door for the solver fleet.

Request lifecycle for ``POST /solve``:

1. **rate limit** — per-client token bucket (429 ``rate_limited``);
2. **decode** — the body's :class:`~repro.server.http.JobKey` (fingerprint,
   in-band budget, name).  A body seen before is a decode-memo hit, answered
   on the event loop without parsing it; a new body is decoded off the loop
   into a :class:`~repro.service.jobs.SolveJob` via
   :mod:`repro.server.protocol` (400 on anything malformed);
3. **cache** — the fingerprint is looked up in the in-memory tier of the
   shared :class:`~repro.service.cache.SolveCache` on the loop, and in the
   disk tier off the loop only when memory misses and a directory is set;
   hits are answered inline without touching the solver queue or decoding
   the job, from a body their cache entry encoded on its first hit
   (:meth:`~repro.service.cache.SolveCache.hit_body`);
4. **job** — a miss whose key came from the memo is decoded into its full
   job now, off the loop;
5. **single-flight** — a fingerprint this replica is already solving joins
   that solve in the batcher.  Across replicas the router's ring is the
   single-flight: it sends every fingerprint to one replica.  A client that
   sends one miss to two replica ports directly may get two solves;
6. **admission** — misses are shed with 429 ``queue_full`` when the
   micro-batcher already holds ``max_queue_depth`` unserved jobs;
7. **dispatch + solve** — admitted misses go to the
   :class:`~repro.server.batcher.MicroBatcher`, which starts each job's
   solve on a free :class:`~repro.server.workers.WorkerPool` thread at once
   (or, with every thread busy, when one frees); each request is
   answered when its own job's solve finishes, and the response carries the
   full :class:`~repro.service.results.JobResult` — except a result with no
   floorplan to give (a ``degraded`` one without a feasible floorplan, or an
   HO job whose heuristic seed failed), answered 503 with ``Retry-After``
   and ``X-Repro-No-Floorplan``.

``GET /healthz`` reports liveness and queue depth; ``GET /metrics`` serves
counters, latency histograms and cache stats, plus the rendered
:mod:`repro.analysis` tables.  :meth:`SolveGateway.drain` implements graceful
shutdown: stop admitting (503), solve every accepted job, then close the
listener.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, Optional, Tuple

from repro.obs.trace import TRACE_SCHEMA_VERSION, Span, Trace, new_id
from repro.server.admission import AdmissionController
from repro.server.batcher import BatcherDraining, DeadlineExpired, MicroBatcher
from repro.server.http import (
    BackgroundServer,
    HttpError,
    HttpRequest,
    HttpServer,
    Response,
    render_tables,
)
from repro.server.metrics import GatewayMetrics
from repro.server.protocol import (
    DEADLINE_HEADER,
    NO_FLOORPLAN_HEADER,
    QUEUE_DEPTH_HEADER,
    ProtocolError,
    hit_body,
    job_from_dict,
    parse_deadline,
    result_body,
)
from repro.server.workers import WorkerPool
from repro.service.cache import CACHE_SCHEMA_VERSION, SolveCache
from repro.utils.buildinfo import git_rev

__all__ = ["GatewayConfig", "SolveGateway", "BackgroundGateway"]


@dataclasses.dataclass(frozen=True)
class GatewayConfig:
    """Tunables of one gateway instance.

    Attributes
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (tests and
        benchmarks read the bound port back from :attr:`SolveGateway.port`).
    max_queue_depth:
        Cache misses the batcher may hold before load shedding; ``None``
        disables the bound.
    rate_limit, rate_burst:
        Per-client token bucket (requests/second, bucket size); ``None``
        disables rate limiting.
    solver_threads:
        Solver threads, the most cache-miss solves that run at once; ``None``
        is one per CPU core.  Each miss is its own solve on one thread of the
        :class:`~repro.server.workers.WorkerPool`, and the
        :class:`~repro.server.batcher.MicroBatcher` starts at most as many
        solves as that pool has threads (an injected ``worker_pool``'s own
        size wins over this field).
    cache_dir:
        Optional persistence directory for the solve cache.  Pointing several
        gateway processes at one directory makes it the fleet's shared result
        store: one replica's solve is a disk hit on every other.  It does not
        deduplicate concurrent misses; the router's ring does.
    cache_capacity:
        In-memory LRU bound of the solve cache.
    brownout_watermark:
        Queue depth at which the gateway enters brown-out: until the queue
        falls back under the watermark, every fresh solve is clamped to
        :data:`~repro.server.workers.MIN_CLAMPED_TIME_LIMIT`, as a tight
        deadline would clamp it.  An answer that proves optimal anyway is
        canonical and cached; any other is flagged ``degraded: true``.
        ``None`` (default) disables brown-out.
    trust_client_id:
        Key rate-limit buckets on the ``X-Client-Id`` header instead of the
        peer address.  Off by default: the header is client-controlled, so
        trusting it lets an id-spinning client mint a fresh full-burst bucket
        per request and void the rate limit.  Turn it on only behind an
        authenticating proxy that sets the header itself.
    tracing, trace_capacity, trace_sink:
        Request tracing (:mod:`repro.obs`).  When on, every ``/solve``
        records a multi-span trace (decode, admission, cache lookup, batch
        assembly, solve + solver stages) into an in-memory ring of
        ``trace_capacity`` traces served at ``GET /debug/traces``;
        ``trace_sink`` additionally appends every completed trace to a
        rotating JSONL file for capture→replay (``python -m repro.obs
        export``).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    max_queue_depth: Optional[int] = 64
    rate_limit: Optional[float] = None
    rate_burst: Optional[float] = None
    solver_threads: Optional[int] = None
    cache_dir: Optional[str] = None
    cache_capacity: Optional[int] = 1024
    brownout_watermark: Optional[int] = None
    trust_client_id: bool = False
    tracing: bool = True
    trace_capacity: int = 256
    trace_sink: Optional[str] = None


class SolveGateway(HttpServer):
    """One gateway instance: listener, batcher, solver threads, metrics.

    ``cache`` and ``worker_pool`` are injectable so tests can run the full
    HTTP path against a stub solver.
    """

    kind = "gateway"
    title = "repro gateway"

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        cache: Optional[SolveCache] = None,
        worker_pool: Optional[WorkerPool] = None,
    ) -> None:
        config = config or GatewayConfig()
        super().__init__(config)
        self.cache = cache if cache is not None else SolveCache(
            self.config.cache_dir, capacity=self.config.cache_capacity
        )
        self.metrics = GatewayMetrics()
        self.workers = worker_pool if worker_pool is not None else WorkerPool(
            cache=self.cache,
            threads=self.config.solver_threads,
            brownout=self.brownout_active,
        )
        self.batcher = MicroBatcher(
            self.workers.solve,
            limit=self.workers.threads,
            on_answer=self.metrics.observe_batch,
        )
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            rate_limit=self.config.rate_limit,
            rate_burst=self.config.rate_burst,
        )
        self.route("POST", "/solve", self._solve)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight work, close."""
        self._draining = True
        await self.batcher.drain()
        await super().drain()
        self.workers.shutdown(wait=True)

    @property
    def queue_depth(self) -> int:
        return self.batcher.queue_depth

    def brownout_active(self) -> bool:
        """Is the overload watermark crossed (degraded serving engaged)?"""
        watermark = self.config.brownout_watermark
        return watermark is not None and self.batcher.queue_depth >= watermark

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    async def _solve(self, request: HttpRequest) -> Response:
        client = request.peer
        if self.config.trust_client_id:
            client = request.header("x-client-id") or client

        async def handle(trace, root):
            status, payload, headers = await self._solve_inner(
                request, client, trace, root
            )
            # every /solve response reports this replica's queue depth so the
            # fleet router can maintain its per-replica load EWMA
            headers = dict(headers or {})
            headers.setdefault(QUEUE_DEPTH_HEADER, str(self.batcher.queue_depth))
            return status, payload, headers

        return await self.traced(request, client, handle)

    async def _solve_inner(
        self,
        request: HttpRequest,
        client: str,
        trace: Optional[Trace],
        root: Optional[Span],
    ) -> Response:
        self.metrics.received += 1
        arrival = time.monotonic()
        if self._draining:
            self.metrics.rejected_draining += 1
            return 503, {"error": "gateway is draining"}, {"Retry-After": "1"}

        # the header form of the budget is checked *before* any decode work:
        # an already-expired request must cost nothing downstream of here
        try:
            budget = parse_deadline(request.header(DEADLINE_HEADER) or None)
        except ProtocolError as exc:
            self.metrics.bad_requests += 1
            return 400, {"error": str(exc)}, None
        deadline_at = arrival + budget if budget is not None else None
        if deadline_at is not None and budget is not None and budget <= 0:
            return self._expired(trace, root, arrival, budget, where="admission")

        rate_started = time.perf_counter()
        decision = self.admission.check_rate(client)
        if trace is not None:
            trace.add_span(
                "admission.rate",
                rate_started,
                time.perf_counter(),
                parent=root,
                admitted=decision.admitted,
            )
        if not decision.admitted:
            self.metrics.shed_rate_limited += 1
            retry_after = str(max(1, round(decision.retry_after)))
            return (
                429,
                {"error": "shed", "reason": decision.reason},
                {"Retry-After": retry_after},
            )

        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            key, job = await self.decode_job(request, trace, root)
        except (HttpError, ProtocolError) as exc:
            self.metrics.bad_requests += 1
            return 400, {"error": str(exc)}, None
        if job is None:
            self.metrics.decode_memo_hits += 1
        if deadline_at is None and key.deadline_s is not None:
            # the in-band form (deadline_s); the header, re-stamped hop by
            # hop with the remaining budget, wins when both are present
            budget = key.deadline_s
            deadline_at = arrival + key.deadline_s
        if deadline_at is not None and time.monotonic() >= deadline_at:
            return self._expired(trace, root, arrival, budget, where="decode")

        lookup_started = time.perf_counter()
        hit = self.cache.get_memory(key.fingerprint)
        if hit is None and self.cache.directory is not None:
            # the disk tier does file IO: off the loop
            hit = await loop.run_in_executor(None, self.cache.get_disk, key.fingerprint)
        if trace is not None:
            trace.add_span(
                "cache.lookup", lookup_started, time.perf_counter(),
                parent=root, hit=hit is not None,
            )
        if hit is not None:
            self.metrics.observe_hit(time.perf_counter() - started)
            return 200, self.cache.hit_body(hit, hit_body), None
        self.metrics.cache_misses += 1

        if job is None:
            # a memo hit that both cache tiers missed: the solve needs the
            # full job, decoded off the loop as on a first send
            decode_started = time.perf_counter()
            job = await loop.run_in_executor(None, lambda: job_from_dict(request.json()))
            if trace is not None:
                trace.add_span(
                    "gateway.decode_job", decode_started, time.perf_counter(), parent=root
                )

        queue_started = time.perf_counter()
        decision = self.admission.check_queue(self.batcher.queue_depth)
        if trace is not None:
            trace.add_span(
                "admission.queue", queue_started, time.perf_counter(),
                parent=root, admitted=decision.admitted,
                queue_depth=self.batcher.queue_depth,
            )
        if not decision.admitted:
            self.metrics.shed_queue_full += 1
            retry_after = str(max(1, round(decision.retry_after)))
            return (
                429,
                {"error": "shed", "reason": decision.reason},
                {"Retry-After": retry_after},
            )

        submit_started = time.perf_counter()
        solve_span: Optional[Span] = None
        if trace is not None:
            # pre-minted so the batcher's batch.assembly span (and the solver
            # stage spans) can nest under it while it is still open
            solve_span = Span(
                name="gateway.solve",
                span_id=new_id(),
                parent_id=root.span_id,
                start=trace.wall(submit_started),
                end=0.0,
            )
        try:
            result = await self.batcher.submit(
                job,
                trace_ctx=(trace, solve_span) if trace is not None else None,
                deadline=deadline_at,
            )
        except BatcherDraining:
            # the drain flag flipped while this request was decoding: the
            # rejection is retryable, not an internal error
            self.metrics.rejected_draining += 1
            return 503, {"error": "gateway is draining"}, {"Retry-After": "1"}
        except DeadlineExpired:
            return self._expired(trace, root, arrival, budget, where="batch")
        except Exception as exc:  # noqa: BLE001 — solver crash must answer 500
            if solve_span is not None:
                solve_span.annotations["error"] = f"{type(exc).__name__}: {exc}"
            self.metrics.observe_solved(time.perf_counter() - started, error=True)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None
        finally:
            if solve_span is not None:
                solve_span.end = trace.wall(time.perf_counter())
                trace.spans.append(solve_span)
        if solve_span is not None:
            solve_span.annotations.update(
                cached=result.cached, backend=result.backend, worker=result.worker
            )
        elapsed = time.perf_counter() - started
        if result.seed_failed:
            # HO mode without a heuristic seed has no floorplan: not a crash,
            # and never cached, so a repeat is solved (and refused) again
            self.metrics.seed_failures += 1
            body = {"error": result.error, "reason": "seed_failed"}
            return 503, body, {"Retry-After": "1", NO_FLOORPLAN_HEADER: "1"}
        if result.status == "error":
            self.metrics.observe_solved(elapsed, error=True)
            return 500, result_body(result, cached=False), None
        if result.degraded:
            self.metrics.degraded += 1
            if not result.feasible:  # the clamp ran out before any floorplan existed
                body = {"error": "no floorplan in the clamped time limit",
                        "reason": "degraded_no_floorplan"}
                return 503, body, {"Retry-After": "1", NO_FLOORPLAN_HEADER: "1"}
        self.metrics.observe_solved(elapsed)
        return 200, result_body(result, cached=result.cached), None

    def _expired(
        self,
        trace: Optional[Trace],
        root: Optional[Span],
        arrival: float,
        budget: Optional[float],
        where: str,
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """Answer 504: the client's budget ran out before a result existed.

        Counted separately from sheds and traced as its own ``deadline.expired``
        span event so chaos runs can tell "client gave up" from "server
        refused".
        """
        self.metrics.deadline_expired += 1
        if trace is not None:
            now = time.perf_counter()
            trace.add_span(
                "deadline.expired",
                now,
                now,
                parent=root,
                where=where,
                budget_s=budget,
                waited_s=round(time.monotonic() - arrival, 6),
            )
        return (
            504,
            {"error": "deadline expired", "reason": "deadline_expired", "where": where},
            {"Retry-After": "1"},
        )

    def health(self) -> Dict[str, object]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(self.metrics.uptime_s, 3),
            "git_rev": git_rev(),
            "cache_schema": CACHE_SCHEMA_VERSION,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "tracing": self.recorder is not None,
            "queue_depth": self.queue_depth,
            "brownout": self.brownout_active(),
        }

    async def metrics_document(self, raw: bool = False) -> Dict[str, object]:
        return self.metrics_snapshot(raw=raw)

    def metrics_snapshot(self, raw: bool = False) -> Dict[str, object]:
        """The ``/metrics`` document: raw numbers plus rendered tables.

        The gateway's own ``counters.hit_rate`` is the served hit rate.  The
        ``cache`` block is the :class:`SolveCache`'s account of *its* lookups,
        which sees each end-to-end miss twice (once from the gateway probe,
        once from the worker pool's re-check before a solve) — so its
        hit_rate reads lower than the gateway's by design.

        ``raw=True`` swaps the rendered tables for exact histogram bucket
        counts (``histograms``) so downstream consumers — the fleet router's
        fleet-wide roll-up, the loadgen fleet driver — can merge replicas
        losslessly instead of scraping fixed-width text.
        """
        snapshot = self.metrics.snapshot(
            queue_depth=self.queue_depth,
            cache_stats=self.cache.stats.as_dict(),
            raw=raw,
        )
        if raw:
            return snapshot
        return render_tables(snapshot, "gateway counters", "request latency (s)")


class BackgroundGateway(BackgroundServer):
    """Run a :class:`SolveGateway` on a dedicated event-loop thread.

    The synchronous harness the example, the tests and the ``server.*``
    benchmarks share: start, read the bound ``port``, throw load from any
    thread, ``stop()`` to drain gracefully.  Usable as a context manager.
    """

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        cache: Optional[SolveCache] = None,
        worker_pool: Optional[WorkerPool] = None,
    ) -> None:
        self.gateway = SolveGateway(config=config, cache=cache, worker_pool=worker_pool)
        try:
            super().__init__(self.gateway, thread_name="repro-gateway")
        except BaseException:
            # a failed bind must not leak the worker pool either
            self.gateway.workers.shutdown(wait=False)
            raise
