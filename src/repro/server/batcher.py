"""Time/size-windowed micro-batching of cache-miss solve jobs.

Cache misses do not go to a solver one by one.  The batcher coalesces them
into batches — flushed when ``max_batch`` jobs have accumulated or when the
oldest pending job has waited ``max_wait`` seconds — and hands each batch to
the worker shards in one call.  Coalescing buys two things:

* **per-batch dedup** — concurrent requests for the same fingerprint (the
  thundering-herd shape of a cache miss under fan-in traffic) are solved
  once for every waiter;
* **batch-level parallelism** — a worker shard runs the batch's solves
  concurrently instead of paying per-request dispatch.

The solver streams a batch's results back one job at a time
(:data:`SolveBatch`), and the batcher answers a fingerprint's waiters the
moment its result arrives: the first waiter gets the result as solved, the
deduplicated ones a ``cached=True`` copy.  No waiter is held for a slower
sibling in its batch, and ``queue_depth`` drops as each job is answered.  If
the stream fails partway, answered waiters keep their results and only the
rest get the error.

``max_batch=1`` (or ``max_wait=0`` with single submits) degenerates to the
one-request-per-solve baseline the ``server.miss_unbatched`` benchmark
measures against.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import AsyncIterator, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.obs.trace import Span, Trace
from repro.service.jobs import SolveJob
from repro.service.results import JobResult

__all__ = ["BatcherDraining", "DeadlineExpired", "MicroBatcher"]

#: Trace context a submission may carry through the batch window: the request
#: trace plus the parent span new batcher spans hang under.
TraceCtx = Tuple[Trace, Optional[Span]]

#: One waiting submission: (job, waiter, trace ctx, submitted perf_counter,
#: monotonic deadline).
Entry = Tuple[SolveJob, asyncio.Future, Optional[TraceCtx], float, Optional[float]]


class BatcherDraining(RuntimeError):
    """Submission refused because the batcher is shutting down (retryable)."""


class DeadlineExpired(RuntimeError):
    """The waiter's budget ran out while its job sat in the batch window.

    Raised out of :meth:`MicroBatcher.submit` instead of solving: a client
    that already gave up must not have compute spent on its behalf.  The
    gateway maps this to a 504 with ``Retry-After``.
    """

#: Signature of the downstream solver: unique jobs plus the per-fingerprint
#: remaining-budget map (seconds; absent fingerprints are unbudgeted) in, a
#: stream of ``(fingerprint, result)`` out, each yielded as soon as that job's
#: result is in the solve cache.
SolveBatch = Callable[
    [List[SolveJob], Dict[str, float]], AsyncIterator[Tuple[str, JobResult]]
]


class MicroBatcher:
    """Coalesce awaitable solve submissions into deduplicated batches.

    Single-event-loop object: ``submit`` must be called from the loop the
    batcher flushes on.  ``queue_depth`` (pending + in-flight jobs) is what
    the admission controller bounds.
    """

    def __init__(
        self,
        solve_batch: SolveBatch,
        max_batch: int = 8,
        max_wait: float = 0.01,
        on_batch: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self._solve_batch = solve_batch
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._on_batch = on_batch
        self._pending: List[Entry] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._tasks: Set[asyncio.Task] = set()
        self._inflight_jobs = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs accepted but not yet answered (pending window + in flight)."""
        return len(self._pending) + self._inflight_jobs

    async def submit(
        self,
        job: SolveJob,
        trace_ctx: Optional[TraceCtx] = None,
        deadline: Optional[float] = None,
    ) -> JobResult:
        """Enqueue one job and wait for its (possibly shared) result.

        ``trace_ctx`` (the request trace and the span batcher work should
        nest under) rides alongside the job; when present, the time the job
        spent coalescing in the window is recorded as a ``batch.assembly``
        span annotated with the batch shape it ended up in.

        ``deadline`` is an absolute ``time.monotonic()`` instant: a waiter
        whose deadline has passed by flush time is dropped from the batch with
        :class:`DeadlineExpired` instead of being solved, and the minimum
        remaining budget across a fingerprint's surviving waiters is handed to
        the solver so nobody blocks past their budget.
        """
        if self._closed:
            raise BatcherDraining("batcher is draining; no new submissions")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((job, future, trace_ctx, time.perf_counter(), deadline))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            if self.max_wait == 0:
                # zero window: flush on the next loop tick, so submissions
                # made back-to-back in one tick still share a batch
                self._timer = loop.call_soon(self._flush)
            else:
                self._timer = loop.call_later(self.max_wait, self._flush)
        return await future

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._inflight_jobs += len(batch)
        task = asyncio.get_event_loop().create_task(self._run_batch(batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, batch: List[Entry]) -> None:
        # drop waiters whose budget ran out in the window *before* assembling
        # the batch: an expired entry must never reach a solver
        now = time.monotonic()
        live: List[Entry] = []
        waiters: Dict[str, List[Entry]] = {}
        budgets: Dict[str, float] = {}
        for entry in batch:
            job, future, _ctx, _submitted, deadline = entry
            if deadline is not None and now >= deadline:
                self._inflight_jobs -= 1
                if not future.done():
                    future.set_exception(
                        DeadlineExpired(
                            f"deadline passed while {job.short_id} waited in the batch window"
                        )
                    )
                continue
            live.append(entry)
            waiters.setdefault(job.fingerprint, []).append(entry)
            if deadline is not None:
                remaining = deadline - now
                budgets[job.fingerprint] = min(
                    budgets.get(job.fingerprint, remaining), remaining
                )
        if not live:
            return
        if self._on_batch is not None:
            self._on_batch(len(live), len(waiters))
        flushed = time.perf_counter()
        for _job, _future, ctx, submitted, _deadline in live:
            if ctx is None:
                continue
            trace, parent = ctx
            trace.add_span(
                "batch.assembly",
                submitted,
                flushed,
                parent=parent,
                batch_size=len(live),
                unique=len(waiters),
            )
        unique = [entries[0][0] for entries in waiters.values()]
        failure: Optional[Exception] = None
        try:
            async for fingerprint, result in self._solve_batch(unique, budgets):
                entries = waiters.pop(fingerprint, None)
                if entries is not None:
                    self._answer(entries, result, flushed)
        except Exception as exc:  # noqa: BLE001 — fail the waiters, not the loop
            failure = exc
        finally:
            # the stream ended (or broke) with these fingerprints unanswered
            for entries in waiters.values():
                missing = RuntimeError(
                    f"worker returned no result for {entries[0][0].short_id}"
                )
                self._answer(entries, failure or missing, flushed)

    def _answer(
        self,
        entries: List[Entry],
        outcome: Union[JobResult, Exception],
        flushed: float,
    ) -> None:
        """Resolve every waiter on one fingerprint (it leaves the queue first).

        The first waiter still waiting gets the result as solved, with the
        solver's stage timings laid under its trace to end now, when the
        result arrived (but never before the batch's ``flushed`` instant, the
        earliest its solve can have begun); the rest were deduplicated and
        get a ``cached=True`` copy.
        """
        self._inflight_jobs -= len(entries)
        fresh = True
        for _job, future, ctx, _submitted, _deadline in entries:
            if future.done():
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
                continue
            result = outcome
            if not result.cached:
                if not fresh:
                    result = dataclasses.replace(result, cached=True)
                elif ctx is not None and ctx[1] is not None:
                    trace, parent = ctx
                    trace.add_stage_spans(
                        result.stages, parent, start=flushed, end=time.perf_counter()
                    )
            fresh = False
            future.set_result(result)

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Flush the window and wait for every in-flight batch (idempotent)."""
        self._closed = True
        self._flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
