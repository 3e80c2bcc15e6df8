"""Slot-driven micro-batching of cache-miss solve jobs.

Cache misses do not go to a solver one by one.  The batcher hands them to the
worker shards in batches, one running batch per shard slot:

* a submission dispatches on the next loop tick when fewer than ``slots``
  batches are running, so an idle gateway starts a miss's solve at once and
  submissions made in the same tick still share a batch;
* when every slot is busy, submissions wait in ``pending``, and the batch that
  dispatches when a running stream ends takes up to ``max_batch`` of them.

A submission whose fingerprint is already pending or in flight joins that
fingerprint's waiters instead of queueing a second solve, so concurrent
requests for one job (the thundering-herd shape of a cache miss under fan-in
traffic) are solved once for every waiter.

Deadlines are checked when a slot takes the batch: a waiter whose deadline
has passed by then gets :class:`DeadlineExpired` instead of a solve, and the
minimum remaining budget across a fingerprint's surviving waiters, measured
at that instant, is what the solver clamps to.  A budget cannot clamp a solve
that has already begun, so a waiter that joined a running solve, like one
still waiting for a slot, leaves with :class:`DeadlineExpired` when its
deadline passes; a job whose every waiter left before a slot took it is never
solved.

The solver streams a batch's results back one job at a time
(:data:`SolveBatch`), and the batcher answers a fingerprint's waiters the
moment its result arrives: the first waiter gets the result as solved, the
others a ``cached=True`` copy.  No waiter is held for a slower sibling in its
batch, and ``queue_depth`` drops as each job is answered.  If the stream fails
partway, answered waiters keep their results and only the rest get the error.

``max_batch=1`` dispatches every job as its own batch, the shape the
``fleet.*`` cache-miss benchmarks run each replica in.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import time
from typing import (
    AsyncIterator, Callable, Dict, List, Optional, Set, Tuple, Union,
)

from repro.obs.trace import Span, Trace
from repro.service.jobs import SolveJob
from repro.service.results import JobResult

__all__ = ["BatcherDraining", "DeadlineExpired", "MicroBatcher"]

#: Trace context a submission may carry through the batcher: the request
#: trace plus the parent span new batcher spans hang under.
TraceCtx = Tuple[Trace, Optional[Span]]

#: One waiting submission: (job, waiter, trace ctx, submitted perf_counter,
#: monotonic deadline).
Entry = Tuple[SolveJob, asyncio.Future, Optional[TraceCtx], float, Optional[float]]


class BatcherDraining(RuntimeError):
    """Submission refused because the batcher is shutting down (retryable)."""


class DeadlineExpired(RuntimeError):
    """The waiter's budget ran out before its job's solve could answer it.

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
    """Batch awaitable solve submissions onto free solver slots, deduplicated.

    Single-event-loop object: ``submit`` must be called from the loop the
    batcher dispatches on.  ``slots`` is the number of batches that may run
    at once (the gateway passes its shard count, so a dispatched batch never
    queues behind another inside the worker pool).  ``queue_depth`` (waiters
    pending or in flight) is what the admission controller bounds.
    """

    def __init__(
        self,
        solve_batch: SolveBatch,
        max_batch: int = 8,
        slots: int = 2,
        on_batch: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if slots <= 0:
            raise ValueError("slots must be positive")
        self._solve_batch = solve_batch
        self.max_batch = max_batch
        self.slots = slots
        self._on_batch = on_batch
        #: every fingerprint pending or in flight -> its waiters, oldest first
        self._waiters: Dict[str, List[Entry]] = {}
        #: fingerprints no slot has taken yet, oldest first (an ordered set)
        self._pending: "collections.OrderedDict[str, None]" = collections.OrderedDict()
        self._dispatch_handle: Optional[asyncio.Handle] = None
        self._tasks: Set[asyncio.Task] = set()
        self._running = 0
        self._depth = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Waiters accepted but not yet answered (pending + in flight)."""
        return self._depth

    def holds(self, fingerprint: str) -> bool:
        """Is ``fingerprint`` pending or in flight here (a submit would join it)?"""
        return fingerprint in self._waiters

    async def submit(
        self,
        job: SolveJob,
        trace_ctx: Optional[TraceCtx] = None,
        deadline: Optional[float] = None,
    ) -> JobResult:
        """Enqueue one job and wait for its (possibly shared) result.

        ``trace_ctx`` (the request trace and the span batcher work should
        nest under) rides alongside the job; when present, the time the job
        waited for a free slot is recorded as a ``batch.assembly`` span
        annotated with the batch shape it was dispatched in.

        ``deadline`` is an absolute ``time.monotonic()`` instant: a waiter
        whose deadline has passed when a slot takes its job is dropped with
        :class:`DeadlineExpired` instead of being solved, and the minimum
        remaining budget across a fingerprint's surviving waiters at that
        instant is handed to the solver so nobody blocks past their budget.
        A waiter whose budget cannot clamp the solve (it is still waiting for
        a slot, or joined a solve already running) raises
        :class:`DeadlineExpired` at its deadline instead of blocking.
        """
        if self._closed:
            raise BatcherDraining("batcher is draining; no new submissions")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        entry = (job, future, trace_ctx, time.perf_counter(), deadline)
        fingerprint = job.fingerprint
        self._depth += 1
        waiters = self._waiters.get(fingerprint)
        joined_running = waiters is not None and fingerprint not in self._pending
        if waiters is not None:
            waiters.append(entry)  # pending or in flight: never solved twice
        else:
            self._waiters[fingerprint] = [entry]
            self._pending[fingerprint] = None
            if self._running < self.slots and self._dispatch_handle is None:
                # next tick, so submissions made in this one share the batch
                self._dispatch_handle = loop.call_soon(self._dispatch)
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), deadline - time.monotonic()
            )
        except asyncio.TimeoutError:
            if future.done() or not (joined_running or fingerprint in self._pending):
                # answered meanwhile, or a slot took the job with this budget
                # clamping its solve: that answer is on its way
                return await future
            self._withdraw(fingerprint, entry)
            raise DeadlineExpired(
                f"deadline passed while {job.short_id} waited for its solve"
            ) from None

    def _withdraw(self, fingerprint: str, entry: Entry) -> None:
        """Take one waiter off ``fingerprint``'s list before its answer.

        A pending fingerprint left without waiters is forgotten, so it never
        reaches a solver; a running one keeps its list for the answer.
        """
        waiters = self._waiters[fingerprint]
        waiters[:] = [waiter for waiter in waiters if waiter is not entry]
        self._depth -= 1
        if not waiters and fingerprint in self._pending:
            del self._pending[fingerprint]
            del self._waiters[fingerprint]

    def _dispatch(self) -> None:
        """Hand pending jobs to free slots, up to ``max_batch`` per batch."""
        if self._dispatch_handle is not None:
            self._dispatch_handle.cancel()
            self._dispatch_handle = None
        while self._pending and self._running < self.slots:
            now = time.monotonic()
            jobs: List[SolveJob] = []
            live: List[Entry] = []
            budgets: Dict[str, float] = {}
            while self._pending and len(jobs) < self.max_batch:
                entries = self._drop_expired(self._pending.popitem(last=False)[0], now)
                if not entries:
                    continue
                job = entries[0][0]
                jobs.append(job)
                live.extend(entries)
                deadlines = [entry[4] for entry in entries if entry[4] is not None]
                if deadlines:
                    budgets[job.fingerprint] = min(deadlines) - now
            if not jobs:
                continue
            if self._on_batch is not None:
                self._on_batch(len(live), len(jobs))
            dispatched = time.perf_counter()
            for _job, _future, ctx, submitted, _deadline in live:
                if ctx is not None:
                    trace, parent = ctx
                    trace.add_span(
                        "batch.assembly",
                        submitted,
                        dispatched,
                        parent=parent,
                        batch_size=len(live),
                        unique=len(jobs),
                    )
            self._running += 1
            task = asyncio.get_running_loop().create_task(
                self._run_batch(jobs, budgets, dispatched)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _drop_expired(self, fingerprint: str, now: float) -> List[Entry]:
        """Fail the waiters of ``fingerprint`` whose deadline has passed.

        Returns the survivors; a fingerprint left with none is forgotten, so
        it never reaches a solver.
        """
        live: List[Entry] = []
        for entry in self._waiters[fingerprint]:
            job, future, _ctx, _submitted, deadline = entry
            if deadline is None or now < deadline:
                live.append(entry)
                continue
            self._depth -= 1
            if not future.done():
                future.set_exception(
                    DeadlineExpired(
                        f"deadline passed while {job.short_id} waited for a solver slot"
                    )
                )
        if live:
            self._waiters[fingerprint] = live
        else:
            del self._waiters[fingerprint]
        return live

    async def _run_batch(
        self, jobs: List[SolveJob], budgets: Dict[str, float], dispatched: float
    ) -> None:
        unanswered = {job.fingerprint: job for job in jobs}
        failure: Optional[Exception] = None
        try:
            async for fingerprint, result in self._solve_batch(jobs, budgets):
                if unanswered.pop(fingerprint, None) is not None:
                    self._answer(fingerprint, result, dispatched)
        except Exception as exc:  # noqa: BLE001 — fail the waiters, not the loop
            failure = exc
        finally:
            # the stream ended (or broke) with these fingerprints unanswered
            for fingerprint, job in unanswered.items():
                missing = RuntimeError(f"worker returned no result for {job.short_id}")
                self._answer(fingerprint, failure or missing, dispatched)
            self._running -= 1
            self._dispatch()

    def _answer(
        self,
        fingerprint: str,
        outcome: Union[JobResult, Exception],
        dispatched: float,
    ) -> None:
        """Resolve every waiter on one fingerprint (it leaves the queue first).

        The first waiter still waiting gets the result as solved, with the
        solver's stage timings laid under its trace to end now, when the
        result arrived (but never before the batch's ``dispatched`` instant,
        the earliest its solve can have begun); the rest, including waiters
        that joined while the solve ran, get a ``cached=True`` copy.
        """
        entries = self._waiters.pop(fingerprint)
        self._depth -= len(entries)
        fresh = True
        for _job, future, ctx, submitted, _deadline in entries:
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
                        result.stages,
                        parent,
                        start=max(dispatched, submitted),
                        end=time.perf_counter(),
                    )
            fresh = False
            future.set_result(result)

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Refuse new work and wait until every accepted job is answered (idempotent)."""
        self._closed = True
        self._dispatch()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
