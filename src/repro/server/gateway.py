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
   the job;
4. **job** — a miss whose key came from the memo is decoded into its full
   job now, off the loop;
5. **single-flight** — a fingerprint this replica is already solving joins
   that solve in the batcher; otherwise, with a shared cache directory, the
   request takes the per-fingerprint flight lock or awaits the replica that
   holds it;
6. **admission** — misses are shed with 429 ``queue_full`` when the
   micro-batcher already holds ``max_queue_depth`` unserved jobs;
7. **batch + solve** — admitted misses go to the
   :class:`~repro.server.batcher.MicroBatcher`, which dispatches them to a
   free :class:`~repro.server.workers.WorkerPool` shard at once (or, with
   every shard busy, in the next batch a shard takes); each request is
   answered when its own job's solve finishes, and the response carries the
   full :class:`~repro.service.results.JobResult`.

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
    render_tables,
)
from repro.server.metrics import GatewayMetrics
from repro.server.protocol import (
    DEADLINE_HEADER,
    QUEUE_DEPTH_HEADER,
    ProtocolError,
    job_from_dict,
    parse_deadline,
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
    max_batch:
        Most unique jobs one batch carries.  A miss dispatches as soon as one
        of the ``shards`` is free; misses that arrive while every shard is
        busy wait and go out together.  ``max_batch=1`` gives every job its
        own batch (the unbatched baseline).
    max_queue_depth:
        Cache misses the batcher may hold before load shedding; ``None``
        disables the bound.
    rate_limit, rate_burst:
        Per-client token bucket (requests/second, bucket size); ``None``
        disables rate limiting.
    shards, batch_workers:
        Worker-pool shape (see :class:`~repro.server.workers.WorkerPool`).
    cache_dir:
        Optional persistence directory for the solve cache.  Pointing several
        gateway processes at one directory makes it the shared fleet cache
        tier: entries are shared, and per-fingerprint lock files give
        cross-replica single-flight on concurrent identical misses.
    cache_capacity:
        In-memory LRU bound of the solve cache.
    flight_timeout:
        Single-flight wait bound: a request that finds another replica
        already solving its fingerprint polls the shared cache (every
        0.02 s) for up to ``max(flight_timeout, 2 x the job's time_limit)``
        seconds before taking the solve over.
    brownout_watermark:
        Queue depth at which the gateway enters brown-out: fresh solves are
        served heuristic-only (annealing, no MILP) and flagged
        ``degraded: true`` until the queue falls back under the watermark.
        ``None`` (default) disables degraded serving.
    trust_client_id:
        Key rate-limit buckets on the ``X-Client-Id`` header instead of the
        peer address.  Off by default: the header is client-controlled, so
        trusting it lets an id-spinning client mint a fresh full-burst bucket
        per request and void the rate limit.  Turn it on only behind an
        authenticating proxy that sets the header itself.
    tracing, trace_capacity, trace_sink:
        Request tracing (:mod:`repro.obs`).  When on, every ``/solve``
        records a multi-span trace (decode, admission, cache lookup,
        single-flight wait, batch assembly, solve + solver stages) into an
        in-memory ring of ``trace_capacity`` traces served at
        ``GET /debug/traces``; ``trace_sink`` additionally appends every
        completed trace to a rotating JSONL file for capture→replay
        (``python -m repro.obs export``).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    max_batch: int = 8
    max_queue_depth: Optional[int] = 64
    rate_limit: Optional[float] = None
    rate_burst: Optional[float] = None
    shards: int = 2
    batch_workers: Optional[int] = 4
    cache_dir: Optional[str] = None
    cache_capacity: Optional[int] = 1024
    flight_timeout: float = 60.0
    brownout_watermark: Optional[int] = None
    trust_client_id: bool = False
    tracing: bool = True
    trace_capacity: int = 256
    trace_sink: Optional[str] = None


class SolveGateway(HttpServer):
    """One gateway instance: listener, batcher, shards, metrics.

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
            shards=self.config.shards,
            batch_workers=self.config.batch_workers,
            brownout=self.brownout_active,
        )
        self.batcher = MicroBatcher(
            self.workers.solve_batch,
            max_batch=self.config.max_batch,
            slots=self.config.shards,
            on_batch=self.metrics.observe_batch,
        )
        #: fingerprints a request here is taking the flight lock for
        self._claims: Dict[str, asyncio.Event] = {}
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
    async def _solve(
        self, request: HttpRequest
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
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
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
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
            return 200, self._result_payload(key.fingerprint, hit, cached=True), None
        self.metrics.cache_misses += 1

        if job is None:
            # a memo hit that both cache tiers missed: the solve (or a flight
            # wait) needs the full job, decoded off the loop as on a first send
            decode_started = time.perf_counter()
            job = await loop.run_in_executor(None, lambda: job_from_dict(request.json()))
            if trace is not None:
                trace.add_span(
                    "gateway.decode_job", decode_started, time.perf_counter(), parent=root
                )

        # cross-replica single-flight: with a shared cache directory, only the
        # per-fingerprint lock holder may occupy solver capacity for this job;
        # every other replica's request awaits the shared entry instead of
        # duplicating the solve.  A repeat of a job this replica is already
        # solving joins it in the batcher, as it does without a directory.
        acquired = False  # does this request hold the flight lock?
        claim: Optional[bool] = None
        if self.cache.directory is not None:
            claim = await self._claim_flight(job.fingerprint)
            acquired = claim is True
            if claim is False:
                flight_started = time.perf_counter()
                result = await self._await_flight(job, deadline_at)
                if trace is not None:
                    trace.add_span(
                        "flight.wait", flight_started, time.perf_counter(),
                        parent=root, landed=result is not None,
                    )
                if result is not None:
                    self.metrics.flight_waits += 1
                    self.metrics.observe_hit(time.perf_counter() - started)
                    return 200, self._result_payload(key.fingerprint, result, cached=True), None
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    return self._expired(trace, root, arrival, budget, where="flight")
                # the holder died, wedged, or the wait timed out: break its
                # lock (a *live* SIGSTOPped holder passes the pid probe
                # forever, so stale reclaim alone can't free it) and take the
                # solve over.  Losing the takeover race to another waiter
                # means one duplicate solve, which the cache absorbs —
                # liveness beats perfect deduplication.
                self.metrics.flight_takeovers += 1
                await loop.run_in_executor(
                    None, self.cache.break_flight, job.fingerprint
                )
                acquired = await loop.run_in_executor(
                    None, self.cache.try_acquire_flight, job.fingerprint
                )

        try:
            queue_started = time.perf_counter()
            decision = self.admission.check_queue(self.batcher.queue_depth)
            if trace is not None:
                trace.add_span(
                    "admission.queue", queue_started, time.perf_counter(),
                    parent=root, admitted=decision.admitted,
                    queue_depth=self.batcher.queue_depth,
                )
            if not decision.admitted:
                if acquired:
                    await loop.run_in_executor(
                        None, self.cache.release_flight, job.fingerprint
                    )
                self.metrics.shed_queue_full += 1
                retry_after = str(max(1, round(decision.retry_after)))
                return (
                    429,
                    {"error": "shed", "reason": decision.reason},
                    {"Retry-After": retry_after},
                )
        finally:
            if claim is True:
                # admitted (it submits below without yielding, so a woken
                # repeat finds the job in the batcher) or shed with the lock
                # already released (a woken repeat takes the lock afresh)
                self._end_claim(job.fingerprint)

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
            if acquired:
                await loop.run_in_executor(
                    None, self.cache.release_flight, job.fingerprint
                )
            if solve_span is not None:
                solve_span.end = trace.wall(time.perf_counter())
                trace.spans.append(solve_span)
        if solve_span is not None:
            solve_span.annotations.update(
                cached=result.cached, backend=result.backend, worker=result.worker
            )
        elapsed = time.perf_counter() - started
        if result.status == "error":
            self.metrics.observe_solved(elapsed, error=True)
            return 500, self._result_payload(key.fingerprint, result, cached=False), None
        if result.degraded:
            self.metrics.degraded += 1
        self.metrics.observe_solved(elapsed)
        return 200, self._result_payload(key.fingerprint, result, cached=result.cached), None

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

    async def _claim_flight(self, fingerprint: str) -> Optional[bool]:
        """Take ``fingerprint``'s flight lock unless this replica solves it already.

        ``None`` means the batcher already holds the fingerprint: the request
        joins that solve and takes no lock.  Otherwise the result says whether
        the lock is now this request's (``False``: another replica holds it).
        Requests on this replica claim a fingerprint one at a time, so a
        repeat that arrives while the first is taking the lock finds the job
        in the batcher, not behind the lock file its own process wrote.  A
        ``True`` claim stays open until the caller ends it with
        :meth:`_end_claim`, once it has submitted the job or released the lock.
        """
        while (pending := self._claims.get(fingerprint)) is not None:
            await pending.wait()
        if self.batcher.holds(fingerprint):
            return None
        self._claims[fingerprint] = asyncio.Event()
        acquired = False
        try:
            acquired = await asyncio.get_running_loop().run_in_executor(
                None, self.cache.try_acquire_flight, fingerprint
            )
            return acquired
        finally:
            if not acquired:
                self._end_claim(fingerprint)

    def _end_claim(self, fingerprint: str) -> None:
        """Wake the requests queued behind this replica's claim on ``fingerprint``."""
        self._claims.pop(fingerprint).set()

    async def _await_flight(self, job, deadline_at: Optional[float] = None):
        """Await another replica's in-flight solve of ``job``.

        Returns the shared cache entry once the holder stores it, or ``None``
        when the lock disappears/goes stale without a result or the wait bound
        expires — the caller then breaks the lock and takes the solve over
        (see :meth:`~repro.service.cache.SolveCache.await_flight`).  The bound
        is ``max(flight_timeout, 2 x the job's time_limit)`` capped by the
        request's remaining deadline budget (``deadline_at``, absolute
        ``time.monotonic()``), so a budgeted waiter never outwaits its own
        client.
        """
        time_limit = job.options.time_limit or 0.0
        timeout = max(self.config.flight_timeout, 2.0 * float(time_limit))
        if deadline_at is not None:
            timeout = min(timeout, max(0.0, deadline_at - time.monotonic()))
        return await self.cache.await_flight(job.fingerprint, timeout=timeout)

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
        once from the worker shard's dedup-across-batches probe) — so its
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

    @staticmethod
    def _result_payload(fingerprint: str, result, cached: bool) -> Dict[str, object]:
        data = result.as_dict()
        data["cached"] = bool(cached)  # describes *this* response, not the store
        return {
            "fingerprint": fingerprint,
            "cached": bool(cached),
            "degraded": bool(result.degraded),
            "result": data,
        }


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
        start_timeout: float = 10.0,
    ) -> None:
        self.gateway = SolveGateway(config=config, cache=cache, worker_pool=worker_pool)
        try:
            super().__init__(self.gateway, start_timeout, thread_name="repro-gateway")
        except BaseException:
            # a failed bind must not leak the worker pool either
            self.gateway.workers.shutdown(wait=False)
            raise
